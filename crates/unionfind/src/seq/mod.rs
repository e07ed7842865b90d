//! Sequential union-find variants.
//!
//! Both variants share the element model described at the crate root and
//! implement both [`crate::UnionFind`] and [`crate::EquivalenceStore`].
//! They differ along the two axes studied by Patwary, Blair & Manne (the
//! paper's ref \[40\]):
//!
//! | Variant | Linking rule | Compression |
//! |---------|--------------|-------------|
//! | [`rem::RemSP`] | by index (smaller index wins) | splicing, interleaved with the union walk |
//! | [`rank::RankUF`] | by rank | full path compression |

pub mod rank;
pub mod rem;

#[cfg(test)]
mod cross_tests {
    //! Every sequential variant (and He's equivalence table) must produce
    //! identical partitions.

    use crate::testing::partition_of;
    use crate::{HeEquivalence, RankUF, RemSP, UnionFind};

    fn scripted_cases() -> Vec<(u32, Vec<(u32, u32)>)> {
        vec![
            (1, vec![]),
            (5, vec![]),
            (5, vec![(1, 2), (3, 4)]),
            (6, vec![(1, 2), (2, 3), (4, 5), (5, 1)]),
            (8, vec![(7, 1), (6, 2), (5, 3), (1, 2), (3, 7)]),
            // chain unions in both directions
            (10, (1..9).map(|i| (i, i + 1)).collect()),
            (10, (1..9).map(|i| (i + 1, i)).collect()),
            // star
            (10, (2..10).map(|i| (1, i)).collect()),
            // repeated and self unions
            (4, vec![(1, 2), (1, 2), (2, 1), (3, 3)]),
        ]
    }

    fn pseudo_random_case(n: u32, ops: usize, seed: u64) -> (u32, Vec<(u32, u32)>) {
        // splitmix64 — deterministic without external crates
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let unions = (0..ops)
            .map(|_| {
                let x = 1 + (next() % (n as u64 - 1)) as u32;
                let y = 1 + (next() % (n as u64 - 1)) as u32;
                (x, y)
            })
            .collect();
        (n, unions)
    }

    fn all_partitions(n: u32, unions: &[(u32, u32)]) -> Vec<(&'static str, Vec<u32>)> {
        vec![
            ("rem", partition_of::<RemSP>(n, unions)),
            ("rank", partition_of::<RankUF>(n, unions)),
            ("he", partition_of::<HeEquivalence>(n, unions)),
        ]
    }

    #[test]
    fn all_variants_agree_on_scripted_cases() {
        for (n, unions) in scripted_cases() {
            let parts = all_partitions(n, &unions);
            let reference = &parts[0].1;
            for (name, part) in &parts[1..] {
                assert_eq!(part, reference, "{name} diverged on n={n} {unions:?}");
            }
        }
    }

    #[test]
    fn all_variants_agree_on_random_cases() {
        for seed in 0..20u64 {
            let (n, unions) = pseudo_random_case(64, 80, seed);
            let parts = all_partitions(n, &unions);
            let reference = &parts[0].1;
            for (name, part) in &parts[1..] {
                assert_eq!(part, reference, "{name} diverged on seed {seed}");
            }
        }
    }

    #[test]
    fn all_variants_agree_after_flatten() {
        for seed in 0..10u64 {
            let (n, unions) = pseudo_random_case(48, 60, seed);
            let flatten_with = |make: &dyn Fn() -> Box<dyn UnionFindDyn>| {
                let mut uf = make();
                for _ in 0..n {
                    uf.make_set_dyn();
                }
                for &(x, y) in &unions {
                    uf.union_dyn(x, y);
                }
                let k = uf.flatten_dyn();
                (k, (0..n).map(|x| uf.resolve_dyn(x)).collect::<Vec<_>>())
            };
            let reference = flatten_with(&|| Box::new(RemSP::new()));
            for (name, result) in [
                ("rank", flatten_with(&|| Box::new(RankUF::new()))),
                ("he", flatten_with(&|| Box::new(HeEquivalence::new()))),
            ] {
                assert_eq!(result, reference, "{name} flatten diverged, seed {seed}");
            }
        }
    }

    /// Object-safe adapter so the flatten comparison can iterate variants.
    trait UnionFindDyn {
        fn make_set_dyn(&mut self) -> u32;
        fn union_dyn(&mut self, x: u32, y: u32) -> u32;
        fn flatten_dyn(&mut self) -> u32;
        fn resolve_dyn(&self, x: u32) -> u32;
    }

    impl<U: UnionFind> UnionFindDyn for U {
        fn make_set_dyn(&mut self) -> u32 {
            self.make_set()
        }
        fn union_dyn(&mut self, x: u32, y: u32) -> u32 {
            self.union(x, y)
        }
        fn flatten_dyn(&mut self) -> u32 {
            self.flatten()
        }
        fn resolve_dyn(&self, x: u32) -> u32 {
            self.resolve(x)
        }
    }
}
