pub fn f(&self) {
    let g = self.gate.write();
    let l = self.lookahead.lock();
    let i = self.inner.lock();
    drop(i);
    drop(l);
    drop(g);
    let a = self.start_lock.lock();
    let h = self.handles.lock();
    drop(h);
    drop(a);
    self.m.lock().push(1);
    self.n.lock().push(2);
}
