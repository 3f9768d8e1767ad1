//! Prints Figure 5: transaction I/O overhead, for the simple one-page
//! transaction, its steady state, and the multi-page / multi-volume /
//! footnote-9 variants.
use locus_harness::experiments::{fig5_steady_state, fig5_txn_io};
use locus_sim::CostModel;

fn main() {
    println!("{}", fig5_txn_io(CostModel::default(), 1, 1).render());
    let mut steady = fig5_steady_state(CostModel::default(), 100);
    let txns = steady.len();
    steady.dedup();
    println!(
        "steady state: {txns} consecutive such transactions, (sequential, random) I/Os of each: \
         {steady:?}\n"
    );
    println!("{}", fig5_txn_io(CostModel::default(), 1, 4).render());
    println!("{}", fig5_txn_io(CostModel::default(), 3, 1).render());
    println!("-- footnote 9: the 1985 prototype's double log writes --");
    println!("{}", fig5_txn_io(CostModel::paper_1985(), 1, 1).render());
}
