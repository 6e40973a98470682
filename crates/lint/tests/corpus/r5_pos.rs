pub fn f(&self) {
    let i = self.inner.lock();
    let g = self.gate.write();
    let x = self.other.lock();
}
