//! [`Algorithm`] — a uniform handle over every labeler in the crate, used
//! by the benchmark harness and the examples to iterate algorithms by
//! name.

use ccl_image::BinaryImage;

use crate::label::LabelImage;
use crate::par::paremsp;
use crate::seq::{aremsp, arun, ccllrpc, cclremsp, flood_fill_label, run_based};

/// The order in which an algorithm hands out final component labels.
/// Labels are always consecutive `1..=k`; only the order differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Numbering {
    /// Raster order of each component's first (top-most-then-left-most)
    /// pixel: one-line scans, run-based, flood fill.
    Raster,
    /// Row-pair scan order: the two-line scans visit the pixel pair
    /// `(r, c)`/`(r+1, c)` before `(r, c+1)`, so a component starting low
    /// in an early column can be numbered before one starting high in a
    /// later column. ARUN, AREMSP and PAREMSP share this order.
    PairScan,
}

/// Every labeling algorithm in the crate, as a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Decision-tree scan + link-by-rank/path-compression (ref \[36\]).
    Ccllrpc,
    /// Decision-tree scan + RemSP (this paper).
    Cclremsp,
    /// Two-line scan + He's equivalence table (ref \[37\]).
    Arun,
    /// Two-line scan + RemSP (this paper — best sequential).
    Aremsp,
    /// Run-based two-scan (ref \[43\]).
    RunBased,
    /// BFS flood fill (oracle).
    FloodFill,
    /// PAREMSP with the given thread count (this paper — parallel).
    Paremsp(usize),
}

impl Algorithm {
    /// The four sequential algorithms of Table II, in the paper's column
    /// order.
    pub fn table2() -> [Algorithm; 4] {
        [
            Algorithm::Ccllrpc,
            Algorithm::Cclremsp,
            Algorithm::Arun,
            Algorithm::Aremsp,
        ]
    }

    /// Every sequential algorithm: the Table II four, the run-based
    /// two-scan and the flood-fill oracle.
    pub fn all_sequential() -> [Algorithm; 6] {
        [
            Algorithm::Ccllrpc,
            Algorithm::Cclremsp,
            Algorithm::Arun,
            Algorithm::Aremsp,
            Algorithm::RunBased,
            Algorithm::FloodFill,
        ]
    }

    /// Short name as used in the paper's tables.
    pub fn name(&self) -> String {
        match self {
            Algorithm::Ccllrpc => "CCLLRPC".into(),
            Algorithm::Cclremsp => "CCLRemSP".into(),
            Algorithm::Arun => "ARun".into(),
            Algorithm::Aremsp => "ARemSP".into(),
            Algorithm::RunBased => "RUN".into(),
            Algorithm::FloodFill => "FloodFill".into(),
            Algorithm::Paremsp(t) => format!("PARemSP({t})"),
        }
    }

    /// The label-numbering order this algorithm produces. Outputs with
    /// equal numbering compare with `==`; across orders, compare
    /// [`LabelImage::canonicalized`] forms.
    pub fn numbering(&self) -> Numbering {
        match self {
            Algorithm::Arun | Algorithm::Aremsp | Algorithm::Paremsp(_) => Numbering::PairScan,
            _ => Numbering::Raster,
        }
    }

    /// Runs the algorithm.
    pub fn run(&self, image: &BinaryImage) -> LabelImage {
        match self {
            Algorithm::Ccllrpc => ccllrpc(image),
            Algorithm::Cclremsp => cclremsp(image),
            Algorithm::Arun => arun(image),
            Algorithm::Aremsp => aremsp(image),
            Algorithm::RunBased => run_based(image),
            Algorithm::FloodFill => flood_fill_label(image),
            Algorithm::Paremsp(threads) => paremsp(image, *threads),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_tables() {
        assert_eq!(Algorithm::Ccllrpc.name(), "CCLLRPC");
        assert_eq!(Algorithm::Aremsp.name(), "ARemSP");
        assert_eq!(Algorithm::Paremsp(24).name(), "PARemSP(24)");
    }

    #[test]
    fn every_algorithm_agrees_on_a_fixture() {
        let img = BinaryImage::parse(
            "##..#
             ..#..
             #...#
             .###.",
        );
        let reference = Algorithm::FloodFill.run(&img).canonicalized();
        let mut algos: Vec<Algorithm> = Algorithm::all_sequential().to_vec();
        algos.push(Algorithm::Paremsp(1));
        algos.push(Algorithm::Paremsp(3));
        for algo in algos {
            assert_eq!(algo.run(&img).canonicalized(), reference, "{}", algo.name());
        }
    }

    #[test]
    fn numbering_groups_are_internally_bit_identical() {
        let img = BinaryImage::parse(
            "..#..#
             #.....
             ..##.#
             #.....",
        );
        let raster = Algorithm::FloodFill.run(&img);
        let pair = Algorithm::Aremsp.run(&img);
        for algo in Algorithm::all_sequential() {
            let out = algo.run(&img);
            match algo.numbering() {
                Numbering::Raster => assert_eq!(out, raster, "{}", algo.name()),
                Numbering::PairScan => assert_eq!(out, pair, "{}", algo.name()),
            }
        }
        assert_eq!(Algorithm::Paremsp(2).run(&img), pair);
        // the two groups really do differ on this fixture…
        assert_ne!(raster, pair);
        // …but only in numbering
        assert_eq!(raster.canonicalized(), pair.canonicalized());
    }

    #[test]
    fn table2_column_order() {
        let names: Vec<String> = Algorithm::table2().iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["CCLLRPC", "CCLRemSP", "ARun", "ARemSP"]);
    }
}
