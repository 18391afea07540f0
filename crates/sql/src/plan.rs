//! Logical query plans.
//!
//! "SQL queries can be easily parsed into a tree graph where each node
//! represents a table (leaf node) or a relational/computational operator"
//! (paper §III-D). The Genesis compiler in `genesis-core` maps each node of
//! this tree to a hardware module and each edge to a hardware queue.

use crate::ast::{ColRef, Expr, JoinKind, Query, SelectItem, TableRef};

/// A logical operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Leaf: a named table (optionally one partition of it).
    Scan {
        /// Table name.
        table: String,
        /// `PARTITION (expr)` selector.
        partition: Option<Expr>,
    },
    /// Column projection / scalar computation.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Non-aggregate select items.
        items: Vec<SelectItem>,
    },
    /// Row filtering.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Predicate.
        pred: Expr,
    },
    /// Key join.
    Join {
        /// Join kind.
        kind: JoinKind,
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Left key.
        left_key: ColRef,
        /// Right key.
        right_key: ColRef,
    },
    /// Aggregation (with optional grouping).
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Select items (aggregates and, with GROUP BY, group columns).
        items: Vec<SelectItem>,
        /// Group-by columns.
        group_by: Vec<ColRef>,
    },
    /// `ORDER BY` (the host-side coordinate sort of §IV-B; the paper's
    /// hardware never sorts — sorting stays on the host).
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys with per-key descending flags.
        keys: Vec<(ColRef, bool)>,
    },
    /// `LIMIT offset, count`.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row offset.
        offset: Expr,
        /// Row count.
        count: Expr,
    },
    /// `PosExplode(COL, INITPOS)`.
    PosExplode {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Array column to explode.
        array: ColRef,
        /// Initial position.
        init_pos: Expr,
    },
    /// `ReadExplode(POS, CIGAR, SEQ[, QUAL])`.
    ReadExplode {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Position expression.
        pos: Expr,
        /// CIGAR column.
        cigar: ColRef,
        /// Sequence column.
        seq: ColRef,
        /// Optional quality column.
        qual: Option<ColRef>,
    },
    /// `FOR var IN rows: … INSERT INTO … body END LOOP`: `body` once per
    /// row of `rows`, with `var` bound to that row (a one-row table and a
    /// column qualifier), the results concatenated in row order. It carries
    /// a script's loop to the hardware compiler; the software engine runs
    /// loops statement by statement (`Script::run`).
    ForEach {
        /// Loop variable.
        var: String,
        /// The rows iterated over.
        rows: Box<LogicalPlan>,
        /// The per-row plan.
        body: Box<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// The node's inputs, left to right.
    pub fn inputs(&self) -> impl Iterator<Item = &LogicalPlan> {
        let (first, second) = match self {
            LogicalPlan::Scan { .. } => (None, None),
            LogicalPlan::Project { input, .. }
            | LogicalPlan::Filter { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::PosExplode { input, .. }
            | LogicalPlan::ReadExplode { input, .. } => (Some(&**input), None),
            LogicalPlan::Join { left, right, .. }
            | LogicalPlan::ForEach { rows: left, body: right, .. } => {
                (Some(&**left), Some(&**right))
            }
        };
        first.into_iter().chain(second)
    }

    /// This node over new inputs: `f` maps each input, left to right.
    #[must_use]
    pub fn map_inputs(&self, mut f: impl FnMut(&LogicalPlan) -> LogicalPlan) -> LogicalPlan {
        let mut map = |input: &LogicalPlan| Box::new(f(input));
        match self {
            LogicalPlan::Scan { .. } => self.clone(),
            LogicalPlan::Project { input, items } => {
                LogicalPlan::Project { input: map(input), items: items.clone() }
            }
            LogicalPlan::Filter { input, pred } => {
                LogicalPlan::Filter { input: map(input), pred: pred.clone() }
            }
            LogicalPlan::Join { kind, left, right, left_key, right_key } => LogicalPlan::Join {
                kind: *kind,
                left: map(left),
                right: map(right),
                left_key: left_key.clone(),
                right_key: right_key.clone(),
            },
            LogicalPlan::Aggregate { input, items, group_by } => LogicalPlan::Aggregate {
                input: map(input),
                items: items.clone(),
                group_by: group_by.clone(),
            },
            LogicalPlan::Sort { input, keys } => {
                LogicalPlan::Sort { input: map(input), keys: keys.clone() }
            }
            LogicalPlan::Limit { input, offset, count } => LogicalPlan::Limit {
                input: map(input),
                offset: offset.clone(),
                count: count.clone(),
            },
            LogicalPlan::PosExplode { input, array, init_pos } => LogicalPlan::PosExplode {
                input: map(input),
                array: array.clone(),
                init_pos: init_pos.clone(),
            },
            LogicalPlan::ReadExplode { input, pos, cigar, seq, qual } => LogicalPlan::ReadExplode {
                input: map(input),
                pos: pos.clone(),
                cigar: cigar.clone(),
                seq: seq.clone(),
                qual: qual.clone(),
            },
            LogicalPlan::ForEach { var, rows, body } => {
                LogicalPlan::ForEach { var: var.clone(), rows: map(rows), body: map(body) }
            }
        }
    }

    /// Number of operator nodes (excluding scans).
    #[must_use]
    pub fn operator_count(&self) -> usize {
        match self {
            LogicalPlan::Scan { .. } => 0,
            _ => 1 + self.inputs().map(LogicalPlan::operator_count).sum::<usize>(),
        }
    }

    /// All scanned table names, leftmost-first.
    #[must_use]
    pub fn scans(&self) -> Vec<&str> {
        match self {
            LogicalPlan::Scan { table, .. } => vec![table],
            _ => {
                let mut inputs = self.inputs().map(LogicalPlan::scans);
                let mut s = inputs.next().unwrap_or_default();
                s.extend(inputs.flatten());
                s
            }
        }
    }
}

/// Lowers a table reference to a plan leaf (or subquery plan).
fn lower_source(t: &TableRef) -> LogicalPlan {
    match t {
        TableRef::Named { name, partition } => {
            LogicalPlan::Scan { table: name.clone(), partition: partition.clone() }
        }
        TableRef::Subquery(q) => lower_query(q),
    }
}

/// Lowers a parsed query into a logical plan.
#[must_use]
pub fn lower_query(q: &Query) -> LogicalPlan {
    match q {
        Query::Select { items, from, join, filter, group_by, order_by, limit } => {
            let mut plan = lower_source(from);
            if let Some(j) = join {
                plan = LogicalPlan::Join {
                    kind: j.kind,
                    left: Box::new(plan),
                    right: Box::new(lower_source(&j.table)),
                    left_key: j.left_key.clone(),
                    right_key: j.right_key.clone(),
                };
            }
            if let Some(pred) = filter {
                plan = LogicalPlan::Filter { input: Box::new(plan), pred: pred.clone() };
            }
            let has_agg = items.iter().any(|i| matches!(i, SelectItem::Agg { .. }));
            if has_agg || !group_by.is_empty() {
                plan = LogicalPlan::Aggregate {
                    input: Box::new(plan),
                    items: items.clone(),
                    group_by: group_by.clone(),
                };
            } else if !items.iter().all(|i| matches!(i, SelectItem::Star)) {
                plan = LogicalPlan::Project { input: Box::new(plan), items: items.clone() };
            }
            if !order_by.is_empty() {
                plan = LogicalPlan::Sort { input: Box::new(plan), keys: order_by.clone() };
            }
            if let Some((offset, count)) = limit {
                plan = LogicalPlan::Limit {
                    input: Box::new(plan),
                    offset: offset.clone(),
                    count: count.clone(),
                };
            }
            plan
        }
        Query::PosExplode { array, init_pos, from } => LogicalPlan::PosExplode {
            input: Box::new(lower_source(from)),
            array: array.clone(),
            init_pos: init_pos.clone(),
        },
        Query::ReadExplode { pos, cigar, seq, qual, from } => LogicalPlan::ReadExplode {
            input: Box::new(lower_source(from)),
            pos: pos.clone(),
            cigar: cigar.clone(),
            seq: seq.clone(),
            qual: qual.clone(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse_script;

    fn plan_of(src: &str) -> LogicalPlan {
        let stmts = parse_script(src).unwrap();
        let Statement::CreateTableAs { query, .. } = &stmts[0] else { panic!() };
        lower_query(query)
    }

    #[test]
    fn select_star_is_bare_scan() {
        let p = plan_of("CREATE TABLE T AS SELECT * FROM U");
        assert_eq!(p, LogicalPlan::Scan { table: "U".into(), partition: None });
        assert_eq!(p.operator_count(), 0);
    }

    #[test]
    fn filter_then_project_order() {
        let p = plan_of("CREATE TABLE T AS SELECT X FROM U WHERE X > 2");
        let LogicalPlan::Project { input, .. } = &p else { panic!("{p:?}") };
        assert!(matches!(**input, LogicalPlan::Filter { .. }));
        assert_eq!(p.operator_count(), 2);
    }

    #[test]
    fn join_collects_scans() {
        let p = plan_of(
            "CREATE TABLE T AS SELECT A.X, B.Y FROM A INNER JOIN B ON A.K = B.K",
        );
        assert_eq!(p.scans(), vec!["A", "B"]);
    }

    #[test]
    fn aggregate_detected() {
        let p = plan_of("CREATE TABLE T AS SELECT SUM(X) FROM U");
        assert!(matches!(p, LogicalPlan::Aggregate { .. }));
    }

    #[test]
    fn limit_wraps_subquery_plan() {
        let p = plan_of("CREATE TABLE T AS SELECT * FROM U LIMIT 5, 10");
        assert!(matches!(p, LogicalPlan::Limit { .. }));
    }
}
