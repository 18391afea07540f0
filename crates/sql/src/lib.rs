//! # genesis-sql
//!
//! The extended-SQL front end of the Genesis framework (paper §III-B).
//!
//! Genomic data manipulation operations are expressed as SQL-style queries
//! over the `READS`/`REF` tables, extended with:
//!
//! * `PosExplode(COL, INITPOS)` — array-to-rows expansion with a generated
//!   `POS` column (as in Hive QL / Spark SQL);
//! * `ReadExplode(POS, CIGAR, SEQ[, QUAL])` — the genomics-specific
//!   per-base expansion of Figure 3;
//! * `FOR row IN table … END LOOP` iteration (as in Oracle PL/SQL);
//! * `EXEC ModuleName InputStream1 = _ …` custom-module escape hatch
//!   (§III-F);
//! * `PARTITION (expr)` table qualifiers selecting pre-partitioned windows.
//!
//! The pipeline is classic: [`token`] lexes, [`parser`] builds the
//! [`ast`], [`plan`] lowers queries to logical operator trees,
//! [`LogicalPlan::output_schema`] types their results, and
//! [`exec`] evaluates plans over [`genesis_types::Table`]s — the software
//! reference semantics against which every hardware pipeline is checked.
//!
//! # Examples
//!
//! ```
//! use genesis_sql::{Catalog, Script};
//! use genesis_types::{Column, DataType, Field, Schema, Table};
//!
//! let mut catalog = Catalog::new();
//! let schema = Schema::new(vec![Field::new("X", DataType::U32)]);
//! let table = Table::from_columns(schema, vec![Column::U32(vec![1, 2, 3])])?;
//! catalog.register("T", table);
//! let script = Script::parse("CREATE TABLE S AS SELECT SUM(X) FROM T")?;
//! script.run(&mut catalog)?;
//! assert_eq!(catalog.table("S").unwrap().get(0, "SUM")?.as_u64(), Some(6));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
pub mod catalog;
pub mod error;
pub mod exec;
pub mod parser;
pub mod plan;
mod schema;
pub mod token;

pub use catalog::Catalog;
pub use error::SqlError;
pub use exec::Script;
pub use plan::LogicalPlan;
