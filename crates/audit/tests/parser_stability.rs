//! Parser stability: injecting comments and blank lines anywhere in a
//! source file must not change what the item parser sees — the same
//! functions, the same signatures, the same call sites in the same
//! order.

use cbr_audit::parser::Workspace;
use cbr_audit::scanner::SourceFile;
use proptest::prelude::*;

const BASE: &str = r#"
pub struct Engine {
    pool: Pool,
}

impl Engine {
    pub fn rds_with(&self, ws: &mut Ws, q: &[u32], k: usize) -> Vec<u32> {
        let scored = q.iter().map(|&c| self.score(ws, c)).collect::<Vec<u32>>();
        let best = scored.iter().copied().max().unwrap_or(k as u32);
        crate::util::emit(best);
        vec![best]
    }

    fn score(&self, ws: &mut Ws, c: u32) -> u32 {
        ws.scratch.push(c);
        self.pool.len() as u32 + c
    }

    pub fn save(&self, path: &str) -> Result<(), Error> {
        std::fs::write(path, format!("{}", self.pool.len()))?;
        Ok(())
    }
}

#[cfg(feature = "serde")]
pub fn export(e: &Engine) -> String {
    serde_json::to_string(e).unwrap_or_default()
}

pub fn drive(e: &Engine, ws: &mut Ws) -> u32 {
    let out = e.rds_with(ws, &[1, 2, 3], 2);
    out.first().copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn drives() {
        let n = super::drive(&make(), &mut ws());
        assert_eq!(n, 3);
    }
}
"#;

/// (name, method, receiver) for every call site in a fn.
type CallSummary = Vec<(String, bool, String)>;

/// Everything the dataflow rules consume from a parsed fn.
fn summarize(src: &str) -> Vec<(String, bool, bool, bool, CallSummary)> {
    let ws = Workspace::parse(vec![SourceFile::parse("crates/knds/src/engine.rs", src)]);
    ws.fns
        .iter()
        .map(|f| {
            (
                f.name.clone(),
                f.is_pub,
                f.is_test,
                f.returns_result,
                f.calls.iter().map(|c| (c.name.clone(), c.method, c.receiver.clone())).collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parse_is_stable_under_comment_and_whitespace_injection(
        modes in prop::collection::vec(0u8..4, BASE.lines().count()..BASE.lines().count() + 1),
        junk in prop::collection::vec("[a-z ]{0,16}", BASE.lines().count()..BASE.lines().count() + 1),
    ) {
        let clean = summarize(BASE);
        let mut mutated = String::new();
        for (i, line) in BASE.lines().enumerate() {
            match modes[i] {
                1 => {
                    mutated.push_str("// ");
                    mutated.push_str(&junk[i]);
                    mutated.push('\n');
                }
                2 => mutated.push('\n'),
                _ => {}
            }
            mutated.push_str(line);
            if modes[i] == 3 {
                mutated.push_str("  // ");
                mutated.push_str(&junk[i]);
            }
            mutated.push('\n');
        }
        let injected = summarize(&mutated);
        prop_assert_eq!(clean, injected);
    }
}
