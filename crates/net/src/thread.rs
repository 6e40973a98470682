//! Serving-thread transport: one thread owns the state, callers send
//! requests over an mpsc channel and block on a per-call reply channel.
//!
//! The request envelope, reply-sender plumbing and shutdown message are
//! all here, so a server only provides a handler closure.
//!
//! Calls carry the caller's [`TraceContext`] across the thread hop: the
//! serving thread installs it around the handler, so spans opened while
//! handling parent the caller's span even though they run on another
//! thread.

use std::sync::mpsc::{channel, sync_channel, Sender, SyncSender};
use std::thread::JoinHandle;

use diesel_obs::trace;
use diesel_obs::TraceContext;

use crate::{Endpoint, NetError, Result, Service};

enum Msg<Req, Resp> {
    Call { req: Req, reply: SyncSender<Resp>, ctx: Option<TraceContext> },
    Shutdown,
}

/// A service running on its own named thread.
///
/// Dropping the server sends a shutdown message and joins the thread;
/// outstanding callers observe [`NetError::Disconnected`].
pub struct ThreadServer<Req, Resp> {
    endpoint: Endpoint,
    tx: Sender<Msg<Req, Resp>>,
    thread: Option<JoinHandle<()>>,
}

impl<Req: Send + 'static, Resp: Send + 'static> ThreadServer<Req, Resp> {
    /// Spawn a serving thread named `diesel-net-<endpoint>` running
    /// `handler` over incoming requests until shutdown.
    ///
    /// The handler owns whatever state it closes over; requests are
    /// processed strictly in arrival order.
    pub fn spawn<H>(endpoint: Endpoint, mut handler: H) -> Self
    where
        H: FnMut(Req) -> Resp + Send + 'static,
    {
        let (tx, rx) = channel::<Msg<Req, Resp>>();
        let thread = std::thread::Builder::new()
            .name(format!("diesel-net-{endpoint}"))
            .spawn(move || {
                while let Ok(msg) = rx.recv() {
                    match msg {
                        Msg::Call { req, reply, ctx } => {
                            let _g = trace::install_context(ctx);
                            // A dead caller (timed out, gave up) is fine.
                            let _ = reply.send(handler(req));
                        }
                        Msg::Shutdown => break,
                    }
                }
            })
            // Spawn failure (OS thread exhaustion) leaves the channel
            // disconnected, so callers observe NetError::Disconnected
            // instead of the transport panicking.
            .ok();
        ThreadServer { endpoint, tx, thread }
    }

    /// A new caller-side channel to this server.
    pub fn channel(&self) -> ThreadChannel<Req, Resp> {
        ThreadChannel { endpoint: self.endpoint.clone(), tx: self.tx.clone() }
    }

    /// This server's endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }
}

impl<Req, Resp> Drop for ThreadServer<Req, Resp> {
    fn drop(&mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl<Req, Resp> std::fmt::Debug for ThreadServer<Req, Resp> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadServer").field("endpoint", &self.endpoint).finish_non_exhaustive()
    }
}

/// Caller side of a [`ThreadServer`]. Cheap to clone; many threads may
/// call concurrently (each call gets its own reply channel).
pub struct ThreadChannel<Req, Resp> {
    endpoint: Endpoint,
    tx: Sender<Msg<Req, Resp>>,
}

impl<Req, Resp> Clone for ThreadChannel<Req, Resp> {
    fn clone(&self) -> Self {
        ThreadChannel { endpoint: self.endpoint.clone(), tx: self.tx.clone() }
    }
}

impl<Req: Send, Resp: Send> Service<Req, Resp> for ThreadChannel<Req, Resp> {
    fn call(&self, req: Req) -> Result<Resp> {
        let (rtx, rrx) = sync_channel::<Resp>(1);
        self.tx
            .send(Msg::Call { req, reply: rtx, ctx: trace::current_context() })
            .map_err(|_| NetError::Disconnected { endpoint: self.endpoint.clone() })?;
        rrx.recv().map_err(|_| NetError::Disconnected { endpoint: self.endpoint.clone() })
    }

    fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }
}

impl<Req, Resp> std::fmt::Debug for ThreadChannel<Req, Resp> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadChannel").field("endpoint", &self.endpoint).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn requests_cross_a_real_thread() {
        let main = std::thread::current().id();
        let srv = ThreadServer::spawn(Endpoint::new("adder", 1), move |x: u64| {
            assert_ne!(std::thread::current().id(), main);
            x + 1
        });
        let chan = srv.channel();
        for i in 0..100 {
            assert_eq!(chan.call(i).unwrap(), i + 1);
        }
    }

    #[test]
    fn concurrent_callers_each_get_their_own_reply() {
        let srv = Arc::new(ThreadServer::spawn(Endpoint::new("echo", 0), |x: u64| x * 10));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let chan = srv.channel();
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let v = t * 1000 + i;
                        assert_eq!(chan.call(v).unwrap(), v * 10);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn killed_server_disconnects_callers() {
        let srv = ThreadServer::spawn(Endpoint::new("dead", 4), |x: u64| x);
        let chan = srv.channel();
        assert_eq!(chan.call(1).unwrap(), 1);
        drop(srv);
        let err = chan.call(2).unwrap_err();
        assert_eq!(err, NetError::Disconnected { endpoint: Endpoint::new("dead", 4) });
    }

    #[test]
    fn trace_context_crosses_the_thread_hop() {
        use diesel_obs::{trace, Registry, Tracer};
        let registry = Arc::new(Registry::default());
        let tracer = Tracer::enabled(&registry);
        let server_tracer = tracer.clone();
        let srv = ThreadServer::spawn(Endpoint::new("traced", 5), move |x: u64| {
            let _t = trace::install_tracer(&server_tracer);
            let _s = trace::span("server.handle", &[]);
            x + 1
        });
        let chan = srv.channel();
        let _t = trace::install_tracer(&tracer);
        {
            let _root = trace::span("client.read", &[]);
            assert_eq!(chan.call(1).unwrap(), 2);
        }
        let spans = tracer.drain();
        let client = spans.iter().find(|s| s.name == "client.read").unwrap();
        let server = spans.iter().find(|s| s.name == "server.handle").unwrap();
        assert_eq!(server.trace, client.trace, "one connected trace");
        assert_eq!(server.parent, Some(client.id), "server span parents the caller's span");
    }

    #[test]
    fn drop_joins_the_serving_thread() {
        let srv = ThreadServer::spawn(Endpoint::new("tmp", 9), |x: u64| x);
        let chan = srv.channel();
        drop(srv);
        assert!(chan.call(1).is_err());
    }
}
