//! The request executor: sort + merge small file requests into chunk-wise
//! operations (Fig. 2: "The request executor in the DIESEL server sorts
//! and merges small file requests to chunk-wise operations").

use diesel_chunk::ChunkId;
use diesel_meta::FileMeta;

/// A planned chunk-wise read: which chunk to fetch, and which original
/// requests it satisfies (offsets sorted ascending so the per-chunk byte
/// range is contiguous-scan friendly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkReadPlan {
    /// The chunk to read.
    pub chunk: ChunkId,
    /// `(original request index, file meta)` pairs, sorted by offset.
    pub requests: Vec<(usize, FileMeta)>,
}

impl ChunkReadPlan {
    /// Smallest payload offset needed from this chunk.
    pub fn min_offset(&self) -> u64 {
        self.requests.first().map(|(_, m)| m.offset).unwrap_or(0)
    }

    /// One-past-the-last payload byte needed from this chunk; `None`
    /// when a request's `offset + length` overflows (metadata from a
    /// corrupt snapshot), which no chunk can satisfy.
    pub fn max_end(&self) -> Option<u64> {
        self.requests
            .iter()
            .try_fold(0, |end, (_, m)| Some(end.max(m.offset.checked_add(m.length)?)))
    }

    /// Bytes covered if the chunk range `[min_offset, max_end)` is read
    /// in one operation; `None` as for [`ChunkReadPlan::max_end`].
    pub fn merged_span(&self) -> Option<u64> {
        self.max_end()?.checked_sub(self.min_offset())
    }
}

/// Group a batch of file requests by chunk and sort within each chunk by
/// offset. Plans come out ordered by chunk ID, so issuing them walks the
/// object store in key order.
pub fn plan_chunk_reads(requests: &[FileMeta]) -> Vec<ChunkReadPlan> {
    // Sort `(chunk, offset, u32 request index)` keys, not the 48-byte
    // metas: one pass then split on chunk boundaries. The index breaks
    // ties, as a stable sort would.
    let mut order: Vec<(ChunkId, u64, u32)> =
        requests.iter().zip(0u32..).map(|(m, i)| (m.chunk, m.offset, i)).collect();
    order.sort_unstable();
    let mut plans: Vec<ChunkReadPlan> = Vec::new();
    for (_, _, i) in order {
        let idx = i as usize;
        let Some(&meta) = requests.get(idx) else { continue };
        match plans.last_mut() {
            Some(p) if p.chunk == meta.chunk => p.requests.push((idx, meta)),
            _ => plans.push(ChunkReadPlan { chunk: meta.chunk, requests: vec![(idx, meta)] }),
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_chunk::{ChunkId, MachineId};

    fn cid(n: u32) -> ChunkId {
        ChunkId::new(n, MachineId::from_seed(1), 1, 0)
    }

    fn meta(chunk: u32, offset: u64, length: u64) -> FileMeta {
        FileMeta { chunk: cid(chunk), index_in_chunk: 0, offset, length, uploaded_ms: 0 }
    }

    #[test]
    fn groups_by_chunk_sorted_by_offset() {
        let reqs = vec![
            meta(2, 500, 10),
            meta(1, 100, 10),
            meta(2, 0, 10),
            meta(1, 50, 10),
            meta(3, 7, 3),
        ];
        let plans = plan_chunk_reads(&reqs);
        assert_eq!(plans.len(), 3);
        assert_eq!(plans[0].chunk, cid(1));
        assert_eq!(plans[0].requests.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![3, 1]);
        assert_eq!(plans[1].chunk, cid(2));
        assert_eq!(plans[1].requests[0].1.offset, 0);
        assert_eq!(plans[2].chunk, cid(3));
    }

    #[test]
    fn plans_preserve_original_indices() {
        let reqs = vec![meta(1, 10, 5), meta(1, 0, 5)];
        let plans = plan_chunk_reads(&reqs);
        let mut seen: Vec<usize> =
            plans.iter().flat_map(|p| p.requests.iter().map(|(i, _)| *i)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn span_accounting() {
        let plans = plan_chunk_reads(&[meta(1, 100, 50), meta(1, 400, 100), meta(1, 0, 10)]);
        let p = &plans[0];
        assert_eq!(p.min_offset(), 0);
        assert_eq!(p.max_end(), Some(500));
        assert_eq!(p.merged_span(), Some(500));
    }

    #[test]
    fn overflowing_ranges_have_no_span() {
        for bad in [meta(1, u64::MAX, 1), meta(1, 1, u64::MAX), meta(1, u64::MAX, u64::MAX)] {
            let plans = plan_chunk_reads(&[meta(1, 100, 50), bad]);
            assert_eq!(plans[0].max_end(), None, "{bad:?}");
            assert_eq!(plans[0].merged_span(), None, "{bad:?}");
        }
        // The largest representable range is still a range.
        let plans = plan_chunk_reads(&[meta(1, u64::MAX, 0)]);
        assert_eq!(plans[0].merged_span(), Some(0));
    }

    #[test]
    fn empty_batch() {
        assert!(plan_chunk_reads(&[]).is_empty());
    }

    #[test]
    fn merging_reduces_operation_count() {
        // 128 requests across 4 chunks become exactly 4 chunk operations.
        let reqs: Vec<FileMeta> =
            (0..128).map(|i| meta(i % 4, (i as u64 / 4) * 100, 100)).collect();
        let plans = plan_chunk_reads(&reqs);
        assert_eq!(plans.len(), 4);
        assert!(plans.iter().all(|p| p.requests.len() == 32));
    }
}
