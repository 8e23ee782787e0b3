//! Seeded-violation fixture for the flow gate. Parsed, never compiled.
//!
//! `query` seeds the two F02 shapes (early `return` and `?` between a
//! pool pop and its push-back); `query_guarded` proves the drop-guard
//! exemption; `tick` seeds both F03 discard shapes.

pub struct Ws;

pub struct Pool {
    slots: Vec<Ws>,
}

impl Pool {
    fn pop(&mut self) -> Ws {
        self.slots.pop().unwrap_or(Ws)
    }

    fn push(&mut self, ws: Ws) {
        self.slots.push(ws);
    }
}

pub enum Error {
    Empty,
}

pub struct Service {
    pool: Pool,
}

impl Service {
    pub fn query(&mut self, q: &[u32]) -> Result<u32, Error> {
        let mut ws = self.pool.pop();
        if q.is_empty() {
            return Err(Error::Empty); // seeded: F02
        }
        let parsed = self.parse(q)?; // seeded: F02
        let out = run(&mut ws, parsed);
        self.pool.push(ws);
        Ok(out)
    }

    pub fn query_guarded(&mut self, q: &[u32]) -> Result<u32, Error> {
        let guard = self.pool.pop(); // exempt: a drop guard takes the workspace
        let parsed = self.parse(q)?;
        Ok(finish(guard, parsed))
    }

    fn parse(&self, q: &[u32]) -> Result<u32, Error> {
        q.first().copied().ok_or(Error::Empty)
    }

    pub fn refresh(&mut self) -> Result<(), Error> {
        Ok(())
    }

    pub fn tick(&mut self) {
        let _ = self.refresh(); // seeded: F03
        self.refresh(); // seeded: F03
    }
}

fn run(_ws: &mut Ws, parsed: u32) -> u32 {
    parsed
}

fn finish(_guard: Ws, parsed: u32) -> u32 {
    parsed
}
