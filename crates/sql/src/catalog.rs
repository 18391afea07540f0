//! Named-table registry, including partitioned tables and custom modules.

use crate::error::SqlError;
use genesis_types::Table;
use std::collections::HashMap;
use std::fmt;

/// A user-supplied custom operation (paper §III-F): takes input tables,
/// produces one output table.
///
/// Modules are `Send + Sync` so a catalog can be shared across the
/// serving layer's client and device-worker threads.
pub type CustomModule = Box<dyn Fn(&[&Table]) -> Result<Table, SqlError> + Send + Sync>;

/// The table catalog a script runs against.
///
/// Partitioned tables (paper §III-B) are registered per partition id;
/// `FROM T PARTITION (p)` resolves against them.
#[derive(Default)]
pub struct Catalog {
    tables: HashMap<String, Table>,
    partitions: HashMap<(String, u64), Table>,
    modules: HashMap<String, CustomModule>,
}

impl Catalog {
    /// Creates an empty catalog.
    #[must_use]
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers (or replaces) a table.
    pub fn register(&mut self, name: &str, table: Table) {
        self.tables.insert(name.to_owned(), table);
    }

    /// Registers one partition of a partitioned table.
    pub fn register_partition(&mut self, name: &str, pid: u64, table: Table) {
        self.partitions.insert((name.to_owned(), pid), table);
    }

    /// Registers a custom module (paper §III-F).
    pub fn register_module(&mut self, name: &str, module: CustomModule) {
        self.modules.insert(name.to_owned(), module);
    }

    /// Looks up a table.
    #[must_use]
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Looks up a partition.
    #[must_use]
    pub fn partition(&self, name: &str, pid: u64) -> Option<&Table> {
        self.partitions.get(&(name.to_owned(), pid))
    }

    /// Some partition of `name`: partitions of one table share a schema.
    pub(crate) fn any_partition(&self, name: &str) -> Option<&Table> {
        self.partitions.iter().find(|((n, _), _)| n == name).map(|(_, t)| t)
    }

    /// Looks up a custom module.
    #[must_use]
    pub fn module(&self, name: &str) -> Option<&CustomModule> {
        self.modules.get(name)
    }

    /// Removes a table (temporary `#tables` are dropped between loop
    /// iterations by the runtime).
    pub fn remove(&mut self, name: &str) -> Option<Table> {
        self.tables.remove(name)
    }

    /// A copy of this catalog's tables and partitions. Custom modules —
    /// opaque closures — are not carried over; differential suites that
    /// re-run a script against fresh state use this to fork the inputs.
    #[must_use]
    pub fn clone_tables(&self) -> Catalog {
        Catalog {
            tables: self.tables.clone(),
            partitions: self.partitions.clone(),
            modules: HashMap::new(),
        }
    }

    /// Names of all registered (non-partitioned) tables, sorted.
    #[must_use]
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

impl fmt::Debug for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Catalog")
            .field("tables", &self.table_names())
            .field("partitions", &self.partitions.len())
            .field("modules", &self.modules.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesis_types::{Column, DataType, Field, Schema};

    fn t() -> Table {
        Table::from_columns(
            Schema::new(vec![Field::new("X", DataType::U8)]),
            vec![Column::U8(vec![1])],
        )
        .unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        c.register("A", t());
        c.register_partition("A", 3, t());
        assert!(c.table("A").is_some());
        assert!(c.partition("A", 3).is_some());
        assert!(c.partition("A", 4).is_none());
        assert_eq!(c.table_names(), vec!["A"]);
        assert!(c.remove("A").is_some());
        assert!(c.table("A").is_none());
    }

    #[test]
    fn modules_callable() {
        let mut c = Catalog::new();
        c.register_module("Id", Box::new(|ins| Ok(ins[0].clone())));
        let input = t();
        let out = c.module("Id").unwrap()(&[&input]).unwrap();
        assert_eq!(out.num_rows(), 1);
    }
}
