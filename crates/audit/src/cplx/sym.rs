//! The symbolic bound language.
//!
//! A loop or function cost is a [`Bound`]: a normalized sum of
//! [`Product`]s over a fixed vocabulary of [`Atom`]s — the corpus and
//! profile parameters the paper's recurrences are stated in. The
//! vocabulary is deliberately small: every atom either appears in the
//! paper's Section 4/5 bounds or names a structural quantity the
//! reproduction's loops are actually driven by.
//!
//! | atom    | written | meaning |
//! |---------|---------|---------|
//! | `One`   | `1`     | a constant number of iterations |
//! | `Log`   | `log`   | a logarithmic factor (comparison sorts, heaps) |
//! | `Depth` | `depth` | the ontology's Dewey depth / valid-path diameter |
//! | `Deg`   | `deg`   | the bounded in/out-degree of a concept or DAG node |
//! | `K`     | `k`     | the requested result count |
//! | `Seg`   | `seg`   | index segments in a `SegmentedView` |
//! | `Nq`    | `nq`    | query profile size `\|Pq\|` |
//! | `Nd`    | `nd`    | document profile size `\|Pd\|` |
//! | `P`     | `P`     | combined profile size `\|Pq\|+\|Pd\|` |
//! | `Post`  | `post`  | total posting entries Σ_c `\|postings(c)\|` |
//! | `C`     | `C`     | ontology concept count `\|C\|` |
//! | `D`     | `D`     | corpus document count `\|D\|` |
//! | `Unk`   | `?`     | finite but symbolically untyped |
//!
//! `Unk` is the honesty atom: a `for` loop over a materialized
//! collection always terminates, so it is *bounded*, but if the lexical
//! environment cannot type the collection the bound is not *symbolic*.
//! C01 accepts `Unk`; the C03 recognizers do not, which is what forces
//! the D-Radix path to be fully typed.

/// One symbolic parameter in a bound product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Atom {
    /// A constant number of iterations.
    One,
    /// A logarithmic factor.
    Log,
    /// Ontology Dewey depth / valid-path diameter.
    Depth,
    /// Bounded concept or DAG-node degree.
    Deg,
    /// The requested result count `k`.
    K,
    /// Index segments.
    Seg,
    /// Query profile size `|Pq|`.
    Nq,
    /// Document profile size `|Pd|`.
    Nd,
    /// Combined profile size `|Pq|+|Pd|`.
    P,
    /// Total posting entries over all concepts.
    Post,
    /// Ontology concept count `|C|`.
    C,
    /// Corpus document count `|D|`.
    D,
    /// Finite but symbolically untyped.
    Unk,
}

impl Atom {
    /// The surface spelling used in directives and rendered bounds.
    pub fn name(self) -> &'static str {
        match self {
            Atom::One => "1",
            Atom::Log => "log",
            Atom::Depth => "depth",
            Atom::Deg => "deg",
            Atom::K => "k",
            Atom::Seg => "seg",
            Atom::Nq => "nq",
            Atom::Nd => "nd",
            Atom::P => "P",
            Atom::Post => "post",
            Atom::C => "C",
            Atom::D => "D",
            Atom::Unk => "?",
        }
    }

    /// Parses one directive token (case-insensitive).
    pub fn parse(token: &str) -> Option<Atom> {
        Some(match token.to_ascii_lowercase().as_str() {
            "1" | "one" => Atom::One,
            "log" => Atom::Log,
            "depth" => Atom::Depth,
            "deg" => Atom::Deg,
            "k" => Atom::K,
            "seg" => Atom::Seg,
            "nq" => Atom::Nq,
            "nd" => Atom::Nd,
            "p" => Atom::P,
            "post" => Atom::Post,
            "c" => Atom::C,
            "d" => Atom::D,
            _ => return None,
        })
    }
}

/// A product of atoms, kept sorted; `[]` is the unit product (O(1)).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Product(pub Vec<Atom>);

impl Product {
    /// The unit product, O(1).
    pub fn one() -> Product {
        Product(Vec::new())
    }

    /// A single-atom product.
    pub fn atom(a: Atom) -> Product {
        if a == Atom::One {
            return Product::one();
        }
        Product(vec![a])
    }

    /// Multiplies two products (multiset union, `One` is the identity).
    pub fn times(&self, other: &Product) -> Product {
        let mut v: Vec<Atom> =
            self.0.iter().chain(other.0.iter()).copied().filter(|&a| a != Atom::One).collect();
        v.sort();
        Product(v)
    }

    /// Number of occurrences of `a` in the product.
    pub fn count(&self, a: Atom) -> usize {
        self.0.iter().filter(|&&x| x == a).count()
    }

    /// True when the product is corpus-pairwise: `D·D` or `C·D`, the
    /// shapes the paper's recurrence forbids on the query path (C02).
    pub fn is_forbidden_pairwise(&self) -> bool {
        self.count(Atom::D) >= 2 || (self.count(Atom::C) >= 1 && self.count(Atom::D) >= 1)
    }

    /// True when the product contains the TA-style quadratic `nq·D`
    /// (every query concept touching every corpus document) — the shape
    /// C03 allows only on the TA baseline root.
    pub fn is_ta_quadratic(&self) -> bool {
        self.count(Atom::Nq) >= 1 && self.count(Atom::D) >= 1
    }

    /// Multiset-inclusion dominance: `self` covers `other` when every
    /// atom of `other` (with multiplicity) appears in `self`. Used by
    /// C04 to check a sized table's capacity against the loop nest that
    /// fills it.
    pub fn dominates(&self, other: &Product) -> bool {
        let mut have = self.0.clone();
        for a in &other.0 {
            match have.iter().position(|x| x == a) {
                Some(i) => {
                    have.swap_remove(i);
                }
                None => return false,
            }
        }
        true
    }

    /// Renders the product, e.g. `nq·C` or `P·log`; the unit product is
    /// `1`.
    pub fn render(&self) -> String {
        if self.0.is_empty() {
            return "1".to_string();
        }
        self.0.iter().map(|a| a.name()).collect::<Vec<_>>().join("·")
    }
}

/// A normalized sum of products.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bound(pub Vec<Product>);

impl Bound {
    /// The O(1) bound.
    pub fn one() -> Bound {
        Bound(vec![Product::one()])
    }

    /// A single-product bound.
    pub fn product(p: Product) -> Bound {
        Bound(vec![p])
    }

    /// The bounded-but-untyped `?`: what a loop the environment cannot
    /// type, or a callee on a call cycle, composes as.
    pub fn unk() -> Bound {
        Bound::product(Product::atom(Atom::Unk))
    }

    /// Adds the terms of `other` into `self`, renormalizing.
    pub fn plus(&self, other: &Bound) -> Bound {
        let mut terms = self.0.clone();
        terms.extend(other.0.iter().cloned());
        Bound(terms).normalize()
    }

    /// Multiplies every term by `p`.
    pub fn scale(&self, p: &Product) -> Bound {
        Bound(self.0.iter().map(|t| t.times(p)).collect()).normalize()
    }

    /// Sorts terms, drops duplicates and unit terms subsumed by real
    /// work, and caps the term count (the analysis only ever inspects
    /// term *shapes*, so capping keeps composition linear without
    /// changing any verdict on terms that survive).
    pub fn normalize(self) -> Bound {
        let mut terms = self.0;
        terms.sort();
        terms.dedup();
        if terms.len() > 1 {
            terms.retain(|t| !t.0.is_empty());
            if terms.is_empty() {
                terms.push(Product::one());
            }
        }
        // Drop dominated terms: a term already covered by a larger one
        // adds nothing to an O(·) sum.
        let mut keep: Vec<Product> = Vec::new();
        for t in terms {
            if keep.iter().any(|k| k != &t && k.dominates(&t)) {
                continue;
            }
            keep.retain(|k| !t.dominates(k) || k == &t);
            keep.push(t);
        }
        keep.sort();
        keep.dedup();
        keep.truncate(16);
        Bound(keep)
    }

    /// True when any term satisfies `pred`.
    pub fn any(&self, pred: impl Fn(&Product) -> bool) -> bool {
        self.0.iter().any(pred)
    }

    /// Renders the bound as `O(t1 + t2 + …)`.
    pub fn render(&self) -> String {
        if self.0.is_empty() {
            return "O(1)".to_string();
        }
        format!("O({})", self.0.iter().map(Product::render).collect::<Vec<_>>().join(" + "))
    }
}

/// Parses a directive bound expression: products of atoms joined by `*`
/// or `·`, summed with `+` — e.g. `p*depth`, `nq*c+d*log`. Returns
/// `None` on any unknown atom so the caller can surface the bad
/// expression instead of silently mistyping a loop.
pub fn parse_expr(expr: &str) -> Option<Bound> {
    let mut terms = Vec::new();
    for term in expr.split('+') {
        let mut p = Product::one();
        for token in term.split(['*', '·']) {
            let token = token.trim();
            if token.is_empty() {
                return None;
            }
            p = p.times(&Product::atom(Atom::parse(token)?));
        }
        terms.push(p);
    }
    if terms.is_empty() {
        return None;
    }
    Some(Bound(terms).normalize())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_vocabulary() {
        let b = parse_expr("nq*c+p*log+1").unwrap();
        assert_eq!(b.render(), "O(log·P + nq·C)");
        assert!(parse_expr("nq*banana").is_none());
        assert!(parse_expr("").is_none());
        assert_eq!(parse_expr("d·d").unwrap().render(), "O(D·D)");
    }

    #[test]
    fn forbidden_shapes_are_detected() {
        assert!(parse_expr("d*d").unwrap().any(|p| p.is_forbidden_pairwise()));
        assert!(parse_expr("c*d").unwrap().any(|p| p.is_forbidden_pairwise()));
        assert!(!parse_expr("nq*d").unwrap().any(|p| p.is_forbidden_pairwise()));
        assert!(parse_expr("nq*d").unwrap().any(|p| p.is_ta_quadratic()));
        assert!(!parse_expr("nq*post").unwrap().any(|p| p.is_ta_quadratic()));
    }

    #[test]
    fn dominance_is_multiset_inclusion() {
        let cap = parse_expr("nq*c").unwrap().0[0].clone();
        assert!(cap.dominates(&parse_expr("nq").unwrap().0[0]));
        assert!(cap.dominates(&cap));
        assert!(!cap.dominates(&parse_expr("nq*d").unwrap().0[0]));
        assert!(!parse_expr("d").unwrap().0[0].dominates(&parse_expr("d*d").unwrap().0[0]));
    }

    #[test]
    fn normalization_drops_dominated_terms() {
        let b = parse_expr("d+d*log+1").unwrap();
        assert_eq!(b.render(), "O(log·D)");
        assert_eq!(Bound::one().scale(&Product::atom(Atom::D)).render(), "O(D)");
    }
}
