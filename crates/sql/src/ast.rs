//! Abstract syntax of the extended SQL dialect.

/// A possibly table-qualified column reference (`SEQ`,
/// `#AlignedRead.SEQ`, `SingleRead.POS`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColRef {
    /// Optional qualifying table name.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColRef {
    /// An unqualified reference.
    #[must_use]
    pub fn bare(column: &str) -> ColRef {
        ColRef { table: None, column: column.to_owned() }
    }

    /// A qualified reference.
    #[must_use]
    pub fn qualified(table: &str, column: &str) -> ColRef {
        ColRef { table: Some(table.to_owned()), column: column.to_owned() }
    }

    /// The display form used in result schemas (`T.C` or `C`).
    #[must_use]
    pub fn display_name(&self) -> String {
        match &self.table {
            Some(t) => format!("{t}.{}", self.column),
            None => self.column.clone(),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `==` comparison (sentinels compare unequal to everything).
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `+`.
    Add,
    /// `-`.
    Sub,
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFn {
    /// `SUM(expr)`; booleans sum as 0/1.
    Sum,
    /// `COUNT(*)` / `COUNT(expr)` (non-NULL rows).
    Count,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Expr {
    /// Column reference.
    Col(ColRef),
    /// `@variable` reference.
    Var(String),
    /// Integer literal.
    Number(u64),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

/// One item of a `SELECT` list.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum SelectItem {
    /// `*`.
    Star,
    /// A scalar expression, optionally aliased.
    Expr {
        /// The expression.
        expr: Expr,
        /// `AS alias`.
        alias: Option<String>,
    },
    /// An aggregate call, optionally aliased.
    Agg {
        /// Aggregate function.
        func: AggFn,
        /// `None` for `COUNT(*)`.
        arg: Option<Expr>,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// A table source: a named table with optional `PARTITION (expr)`, or a
/// parenthesized subquery.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Named table.
    Named {
        /// Table (or loop-variable) name.
        name: String,
        /// `PARTITION (expr)` selector.
        partition: Option<Expr>,
    },
    /// `( SELECT ... )` subquery.
    Subquery(Box<Query>),
}

/// Join kinds (paper §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// Discard unmatched rows.
    Inner,
    /// Keep unmatched left rows.
    Left,
    /// Keep unmatched rows from both sides.
    Outer,
}

/// A `JOIN … ON a = b` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// Join kind.
    pub kind: JoinKind,
    /// Right-hand source.
    pub table: TableRef,
    /// Left key column.
    pub left_key: ColRef,
    /// Right key column.
    pub right_key: ColRef,
}

/// A query producing a table.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `SELECT … FROM … [JOIN …] [WHERE …] [GROUP BY …] [LIMIT o, n]`.
    Select {
        /// Select list.
        items: Vec<SelectItem>,
        /// Primary source.
        from: TableRef,
        /// Optional join.
        join: Option<JoinClause>,
        /// Optional predicate.
        filter: Option<Expr>,
        /// GROUP BY columns.
        group_by: Vec<ColRef>,
        /// `ORDER BY` columns with per-column descending flags.
        order_by: Vec<(ColRef, bool)>,
        /// `LIMIT offset, count`.
        limit: Option<(Expr, Expr)>,
    },
    /// `PosExplode(COL, INITPOS) FROM T`.
    PosExplode {
        /// The array column.
        array: ColRef,
        /// Initial position expression.
        init_pos: Expr,
        /// Source.
        from: TableRef,
    },
    /// `ReadExplode(POS, CIGAR, SEQ[, QUAL]) FROM T`.
    ReadExplode {
        /// Position column/expression.
        pos: Expr,
        /// CIGAR column.
        cigar: ColRef,
        /// Sequence column.
        seq: ColRef,
        /// Optional quality column.
        qual: Option<ColRef>,
        /// Source.
        from: TableRef,
    },
}

/// Top-level statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name AS query`.
    CreateTableAs {
        /// Target table name.
        name: String,
        /// Producing query.
        query: Query,
    },
    /// `INSERT INTO name query`.
    Insert {
        /// Target table.
        name: String,
        /// Producing query.
        query: Query,
    },
    /// `DECLARE @name int`.
    Declare {
        /// Variable name (with `@`).
        name: String,
    },
    /// `SET @name = expr`.
    Set {
        /// Variable name (with `@`).
        name: String,
        /// Value expression.
        expr: Expr,
    },
    /// `FOR var IN table: body END LOOP`.
    ForLoop {
        /// Loop variable (bound to one row per iteration).
        var: String,
        /// Table iterated over.
        table: String,
        /// Loop body.
        body: Vec<Statement>,
    },
    /// `EXEC ModuleName Input1 = _ …` (§III-F custom modules).
    Exec {
        /// Module name.
        module: String,
        /// Named input-stream bindings (`_` placeholders become table
        /// names resolved by the runtime).
        inputs: Vec<String>,
    },
}
