//! Reference answers the benchmark computes itself, from its own mirror
//! of the items: a plain loop for COUNT, SUM, MIN and MAX, the sorted
//! items for MEDIAN, and a rank window of ±ε·N for QUANTILE.

use saq_core::engine::{QueryOutcome, QuerySpec};
use saq_core::error::QueryError;
use saq_core::predicate::{Domain, Predicate, Test};

pub fn floor_log2(x: u64) -> u64 {
    if x <= 1 {
        0
    } else {
        63 - u64::from(x.leading_zeros())
    }
}

fn in_domain(domain: Domain, v: u64) -> u64 {
    match domain {
        Domain::Raw => v,
        Domain::Log => floor_log2(v),
    }
}

fn holds(p: &Predicate, v: u64) -> bool {
    let x = in_domain(p.domain, v);
    match p.test {
        Test::True => true,
        Test::LessThan2 { y2 } => 2 * x < y2,
    }
}

/// The benchmark's copy of every node's item, kept in step with each
/// write it sends, plus a sorted copy rebuilt on demand.
pub struct Mirror {
    pub items: Vec<u64>,
    sorted: Option<Vec<u64>>,
}

impl Mirror {
    pub fn new(items: Vec<u64>) -> Self {
        Mirror {
            items,
            sorted: None,
        }
    }

    pub fn set(&mut self, node: usize, value: u64) {
        self.items[node] = value;
        self.sorted = None;
    }

    fn sorted(&mut self) -> &[u64] {
        let items = &self.items;
        self.sorted.get_or_insert_with(|| {
            let mut s = items.clone();
            s.sort_unstable();
            s
        })
    }

    /// Whether `outcome` is a correct answer to `spec` over the mirrored
    /// items.
    pub fn verify(&mut self, spec: &QuerySpec, outcome: &Result<QueryOutcome, QueryError>) -> bool {
        let Ok(outcome) = outcome else {
            return false;
        };
        let items = &self.items;
        match (spec, outcome) {
            (QuerySpec::Count(p), QueryOutcome::Num(n)) => {
                *n == items.iter().filter(|&&v| holds(p, v)).count() as u64
            }
            (QuerySpec::Sum(p), QueryOutcome::Num(n)) => {
                *n == items.iter().filter(|&&v| holds(p, v)).sum::<u64>()
            }
            (QuerySpec::Min(d), QueryOutcome::OptVal(v)) => {
                *v == items.iter().map(|&x| in_domain(*d, x)).min()
            }
            (QuerySpec::Max(d), QueryOutcome::OptVal(v)) => {
                *v == items.iter().map(|&x| in_domain(*d, x)).max()
            }
            (QuerySpec::Median, QueryOutcome::Median(m)) => {
                let s = self.sorted();
                // Definition 2.3 with k = N/2: the ⌈N/2⌉-th smallest item.
                m.value == s[s.len().div_ceil(2) - 1]
            }
            (QuerySpec::Quantile { q, eps }, QueryOutcome::Quantile(out)) => {
                let Some(v) = out.value else {
                    return false;
                };
                let s = self.sorted();
                let n = s.len() as f64;
                let target = (q * n).ceil().max(1.0);
                let slack = eps * n;
                // Ranks (1-based) the value occupies in the sorted items.
                let lo = s.partition_point(|&x| x < v) as f64 + 1.0;
                let hi = s.partition_point(|&x| x <= v) as f64;
                out.count == s.len() as u64
                    && hi >= lo
                    && hi >= target - slack
                    && lo <= target + slack
            }
            _ => false,
        }
    }
}
