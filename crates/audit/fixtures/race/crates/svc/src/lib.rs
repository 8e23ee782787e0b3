//! Seeded lock-discipline violations for the race-rule fixture run.
//!
//! Every function here either plants a bug a specific rule must catch
//! (exact counts asserted in `crates/audit/tests/gates.rs` and enforced
//! by `--expect-findings`) or is a deliberately clean twin proving the
//! rule does not overfire. This tree is analyzed only by
//! `cbr-audit race --fixtures`; the workspace walkers skip `fixtures/`.

/// Interprocedural lock-order inversion: `ab` takes `a` then `b` (via
/// `lock_b`), `ba` takes `b` then `a` — one R01 cycle, plus R02 for
/// each nested acquisition made while a guard is held.
pub struct Svc {
    a: Mutex<u32>,
    b: Mutex<u32>,
    writer: Mutex<u32>,
    cell: Published<u32>,
}

impl Svc {
    /// Takes `a`, then `b` through a helper. R01 edge `a -> b`.
    pub fn ab(&self) {
        let _g = self.a.lock();
        self.lock_b();
    }

    fn lock_b(&self) {
        let _g = self.b.lock();
    }

    /// Takes `b`, then `a` through a helper. R01 edge `b -> a` — cycle.
    pub fn ba(&self) {
        let _g = self.b.lock();
        self.lock_a();
    }

    fn lock_a(&self) {
        let _g = self.a.lock();
    }

    /// Classic lost update: the value is read under one critical
    /// section and written back under a later one. R01 (split).
    pub fn read_modify_write(&self) {
        let v = *self.a.lock();
        *self.a.lock() = v + 1;
    }

    /// Publishes with no writer guard anywhere. R03.
    pub fn bad_publish(&self) {
        self.cell.publish(1);
    }

    /// Publishes under the writer lock — the disciplined shape.
    pub fn good_publish(&self) {
        let _g = self.writer.lock();
        self.cell.publish(2);
    }

    /// Publish helper with no local guard; its only caller holds one.
    fn publish_inner(&self) {
        self.cell.publish(3);
    }

    /// Caller-side writer critical section satisfies R03 for
    /// `publish_inner`.
    pub fn outer(&self) {
        let _g = self.writer.lock();
        self.publish_inner();
    }
}

/// Lock inversion across spawned closures, with the locks reaching the
/// threads through tuple-destructured clones: the alias map must fold
/// `a1`/`a2` back to `a` for the cycle to appear. One R01 cycle plus
/// R02 for each closure's nested acquisition.
pub fn clone_inversion(a: Arc<Mutex<u32>>, b: Arc<Mutex<u32>>) {
    let (a1, b1) = (a.clone(), b.clone());
    spawn(move || {
        let _ga = a1.lock();
        let _gb = b1.lock();
    });
    let (a2, b2) = (a.clone(), b.clone());
    spawn(move || {
        let _gb = b2.lock();
        let _ga = a2.lock();
    });
}

/// A slot popped inside the spawned closure is never pushed back. R05.
pub fn leaky_spawn(pool: &SlotPool) {
    spawn(|| {
        let _w = pool.pop();
    });
}

/// A slot popped on the spawning thread is returned from inside the
/// closure — it crosses the thread boundary. R05.
pub fn cross_thread_push(pool: &SlotPool) {
    let w = pool.pop();
    spawn(move || {
        pool.push(w);
    });
}

/// Pop and push balance inside the same closure — clean.
pub fn balanced(pool: &SlotPool) {
    spawn(|| {
        let w = pool.pop();
        pool.push(w);
    });
}

/// Guard explicitly dropped before the blocking join — clean under R02.
pub fn drops_before_join(m: &Mutex<u32>, h: JoinHandle) {
    let g = m.lock();
    drop(g);
    h.join();
}
