//! The global wait-for graph and cycle detection.

use std::collections::{BTreeMap, BTreeSet};

use locus_types::Owner;

/// Wait-for graph over lock owners (transactions and processes).
#[derive(Debug, Default, Clone)]
pub struct WaitForGraph {
    /// waiter → set of holders it waits on.
    edges: BTreeMap<Owner, BTreeSet<Owner>>,
}

impl WaitForGraph {
    pub fn new() -> Self {
        WaitForGraph::default()
    }

    pub fn add(&mut self, waiter: Owner, holder: Owner) {
        if waiter != holder {
            self.edges.entry(waiter).or_default().insert(holder);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    pub fn node_count(&self) -> usize {
        let mut nodes: BTreeSet<Owner> = self.edges.keys().copied().collect();
        for hs in self.edges.values() {
            nodes.extend(hs.iter().copied());
        }
        nodes.len()
    }

    /// Finds all elementary cycles reachable by DFS. Each cycle is returned
    /// once, as the list of owners on it (no fixed starting point is
    /// guaranteed).
    pub fn cycles(&self) -> Vec<Vec<Owner>> {
        let mut cycles: Vec<Vec<Owner>> = Vec::new();
        let mut seen_cycles: BTreeSet<Vec<Owner>> = BTreeSet::new();
        let mut done: BTreeSet<Owner> = BTreeSet::new();
        for start in self.edges.keys() {
            if done.contains(start) {
                continue;
            }
            let mut stack: Vec<Owner> = Vec::new();
            let mut on_stack: BTreeSet<Owner> = BTreeSet::new();
            self.dfs(
                *start,
                &mut stack,
                &mut on_stack,
                &mut done,
                &mut cycles,
                &mut seen_cycles,
            );
        }
        cycles
    }

    fn dfs(
        &self,
        node: Owner,
        stack: &mut Vec<Owner>,
        on_stack: &mut BTreeSet<Owner>,
        done: &mut BTreeSet<Owner>,
        cycles: &mut Vec<Vec<Owner>>,
        seen: &mut BTreeSet<Vec<Owner>>,
    ) {
        stack.push(node);
        on_stack.insert(node);
        if let Some(nexts) = self.edges.get(&node) {
            for next in nexts {
                if on_stack.contains(next) {
                    // Found a cycle: the stack suffix from `next` onward.
                    let pos = stack
                        .iter()
                        .position(|o| o == next)
                        .expect("on_stack implies presence");
                    let mut cyc: Vec<Owner> = stack[pos..].to_vec();
                    // Canonicalize (rotate to smallest element) to dedup.
                    let min_idx = cyc
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, o)| **o)
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cyc.rotate_left(min_idx);
                    if seen.insert(cyc.clone()) {
                        cycles.push(cyc);
                    }
                } else if !done.contains(next) {
                    self.dfs(*next, stack, on_stack, done, cycles, seen);
                }
            }
        }
        stack.pop();
        on_stack.remove(&node);
        done.insert(node);
    }

    /// Removes a node (an aborted victim) and every edge touching it.
    pub fn remove(&mut self, victim: Owner) {
        self.edges.remove(&victim);
        for hs in self.edges.values_mut() {
            hs.remove(&victim);
        }
        self.edges.retain(|_, hs| !hs.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::{Pid, SiteId, TransId};

    fn t(n: u64) -> Owner {
        Owner::Trans(TransId::new(SiteId(0), n))
    }

    fn p(n: u32) -> Owner {
        Owner::Proc(Pid::new(SiteId(0), n))
    }

    #[test]
    fn no_cycle_in_a_chain() {
        let mut g = WaitForGraph::new();
        g.add(t(1), t(2));
        g.add(t(2), t(3));
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn detects_two_cycle() {
        let mut g = WaitForGraph::new();
        g.add(t(1), t(2));
        g.add(t(2), t(1));
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 2);
    }

    #[test]
    fn detects_longer_cycle_and_mixed_owners() {
        let mut g = WaitForGraph::new();
        g.add(t(1), p(9));
        g.add(p(9), t(2));
        g.add(t(2), t(1));
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 3);
    }

    #[test]
    fn two_disjoint_cycles_found() {
        let mut g = WaitForGraph::new();
        g.add(t(1), t(2));
        g.add(t(2), t(1));
        g.add(t(3), t(4));
        g.add(t(4), t(3));
        assert_eq!(g.cycles().len(), 2);
    }

    #[test]
    fn removing_victim_breaks_cycle() {
        let mut g = WaitForGraph::new();
        g.add(t(1), t(2));
        g.add(t(2), t(1));
        g.remove(t(2));
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn self_edges_are_ignored() {
        // A transaction never waits on itself (same-owner locks are always
        // compatible).
        let mut g = WaitForGraph::new();
        g.add(t(1), t(1));
        assert!(g.is_empty());
    }

    #[test]
    fn duplicate_cycles_are_deduplicated() {
        let mut g = WaitForGraph::new();
        // Two parallel edges between the same nodes (two files).
        g.add(t(1), t(2));
        g.add(t(2), t(1));
        g.add(t(1), t(2));
        assert_eq!(g.cycles().len(), 1);
    }
}
