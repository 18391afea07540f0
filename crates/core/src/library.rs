//! The Genesis hardware library registry (paper Figure 6 and §III-C): the
//! mapping between relational / genomics operators and the configurable
//! hardware modules that implement them.
//!
//! [`ModuleRegistry`] is the one shared surface the planner
//! ([`crate::compile::Compiler`]), the SQL runtime
//! ([`genesis_sql::Catalog`]) and `EXEC` resolution agree on: a module
//! registered once — builtin or user [`CustomModuleSpec`] — is both
//! *planner-placeable* (it expands to a [`LogicalPlan`] fragment the
//! general compiler lowers into the module graph) and *`EXEC`-callable*
//! (its software evaluator installs into a catalog for the §III-B
//! engine). Each entry declares its input/output schema and a rate
//! profile: the nominal output-rows-per-input-row *expansion factor* the
//! Figure 8 replication model uses when no measured value is available.

use crate::error::CoreError;
use genesis_hw::modules::ModuleKind;
use genesis_sql::ast::{ColRef, Expr};
use genesis_sql::error::SqlError;
use genesis_sql::{Catalog, LogicalPlan};
use genesis_types::Table;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// How the planner expands an `EXEC <module> in1 = _ in2 = _ …` call into
/// a [`LogicalPlan`] fragment over the named input tables.
pub type PlanTemplate =
    Arc<dyn Fn(&[String]) -> Result<LogicalPlan, CoreError> + Send + Sync>;

/// A shareable software evaluator for a custom module (the `Arc`'d form of
/// [`genesis_sql::catalog::CustomModule`], so one registration can install
/// into any number of catalogs).
pub type SharedEval = Arc<dyn Fn(&[&Table]) -> Result<Table, SqlError> + Send + Sync>;

/// One registry entry describing a library module.
#[derive(Debug, Clone)]
pub struct ModuleEntry {
    /// The hardware block implementing this module, when it is one of the
    /// paper's configurable blocks (`None` for software-only customs).
    pub kind: Option<ModuleKind>,
    /// Library name (the `EXEC` name).
    pub name: String,
    /// The SQL operator(s) this module implements.
    pub implements: String,
    /// One-line behavioral description.
    pub description: String,
    /// Declared input schema: one label per input stream/column.
    pub inputs: Vec<String>,
    /// Declared output schema: one label per output field.
    pub outputs: Vec<String>,
    /// Rate profile: nominal output rows per input row. `1.0` for
    /// row-preserving modules; explode modules declare their typical
    /// expansion (≈ read length) — the lowering replaces it with the
    /// measured value of the bound data.
    pub expansion: f64,
}

/// A user custom module (paper §III-F) being registered: name, declared
/// schema, and the two halves that make it first-class — a plan template
/// (planner placement) and a software evaluator (`EXEC` in the §III-B
/// engine). Either half may be omitted.
pub struct CustomModuleSpec {
    entry: ModuleEntry,
    template: Option<PlanTemplate>,
    eval: Option<SharedEval>,
}

impl CustomModuleSpec {
    /// A custom module with the given name and description, no declared
    /// schema, and unit expansion.
    #[must_use]
    pub fn new(name: &str, description: &str) -> CustomModuleSpec {
        CustomModuleSpec {
            entry: ModuleEntry {
                kind: None,
                name: name.to_owned(),
                implements: format!("EXEC {name} (custom, §III-F)"),
                description: description.to_owned(),
                inputs: Vec::new(),
                outputs: Vec::new(),
                expansion: 1.0,
            },
            template: None,
            eval: None,
        }
    }

    /// Declares the input/output schema.
    #[must_use]
    pub fn schema(mut self, inputs: &[&str], outputs: &[&str]) -> CustomModuleSpec {
        self.entry.inputs = inputs.iter().map(|s| (*s).to_owned()).collect();
        self.entry.outputs = outputs.iter().map(|s| (*s).to_owned()).collect();
        self
    }

    /// Declares the nominal expansion factor (output rows per input row).
    #[must_use]
    pub fn expansion(mut self, factor: f64) -> CustomModuleSpec {
        self.entry.expansion = factor;
        self
    }

    /// Makes the module planner-placeable: `f` expands an `EXEC` call over
    /// the named input tables into a [`LogicalPlan`] fragment the general
    /// compiler lowers like any other operator tree.
    #[must_use]
    pub fn plan_template(
        mut self,
        f: impl Fn(&[String]) -> Result<LogicalPlan, CoreError> + Send + Sync + 'static,
    ) -> CustomModuleSpec {
        self.template = Some(Arc::new(f));
        self
    }

    /// Makes the module `EXEC`-callable on the software engine:
    /// [`ModuleRegistry::install`] registers `f` into a catalog.
    #[must_use]
    pub fn software(
        mut self,
        f: impl Fn(&[&Table]) -> Result<Table, SqlError> + Send + Sync + 'static,
    ) -> CustomModuleSpec {
        self.eval = Some(Arc::new(f));
        self
    }
}

impl fmt::Debug for CustomModuleSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CustomModuleSpec")
            .field("entry", &self.entry)
            .field("template", &self.template.is_some())
            .field("eval", &self.eval.is_some())
            .finish()
    }
}

/// The shared module registry: the full hardware library as enumerated in
/// the paper (§III-C) plus any user custom modules, with name resolution,
/// planner placement (plan templates) and software installation.
#[derive(Clone, Default)]
pub struct ModuleRegistry {
    entries: Vec<ModuleEntry>,
    templates: HashMap<String, PlanTemplate>,
    evals: HashMap<String, SharedEval>,
}

impl fmt::Debug for ModuleRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModuleRegistry")
            .field("entries", &self.entries.iter().map(|e| e.name.as_str()).collect::<Vec<_>>())
            .field("templates", &self.templates.len())
            .field("evals", &self.evals.len())
            .finish()
    }
}

/// Nominal bases per read, the builtin explode modules' declared rate
/// profile (short-read sequencers produce ~100–150 bp reads).
const NOMINAL_READ_LEN: f64 = 100.0;

impl ModuleRegistry {
    /// An empty registry (no builtins) — useful only for tests; prefer
    /// [`ModuleRegistry::with_builtins`].
    #[must_use]
    pub fn new() -> ModuleRegistry {
        ModuleRegistry::default()
    }

    /// The full paper library (§III-C), with the genomics modules
    /// (`ReadToBases`, `MDGen`, `BinIDGen`) registered as placeable /
    /// callable entries like any user custom.
    #[must_use]
    pub fn with_builtins() -> ModuleRegistry {
        let mut r = ModuleRegistry::new();
        let mut add = |kind, name: &str, implements: &str, description: &str, inputs: &[&str], outputs: &[&str], expansion| {
            r.entries.push(ModuleEntry {
                kind,
                name: name.to_owned(),
                implements: implements.to_owned(),
                description: description.to_owned(),
                inputs: inputs.iter().map(|s| (*s).to_owned()).collect(),
                outputs: outputs.iter().map(|s| (*s).to_owned()).collect(),
                expansion,
            });
        };
        add(
            Some(ModuleKind::Joiner),
            "Joiner",
            "INNER/LEFT/OUTER JOIN ... ON key",
            "merges two key-sorted streams, concatenating data fields on key match",
            &["left[key,…]", "right[key,…]"],
            &["row[key,left…,right…]"],
            1.0,
        );
        add(
            Some(ModuleKind::Filter),
            "Filter",
            "WHERE <field cmp field|const>",
            "drops flits failing the comparison condition",
            &["rows"],
            &["rows"],
            1.0,
        );
        add(
            Some(ModuleKind::Reducer),
            "Reducer",
            "SUM / COUNT / MIN / MAX [GROUP BY item]",
            "reduction tree over items, with optional bit-mask",
            &["rows"],
            &["aggregate"],
            1.0,
        );
        add(
            Some(ModuleKind::Alu),
            "Stream ALU",
            "scalar expressions in SELECT / SET",
            "element-wise unary/binary ops on one or two streams",
            &["a", "b?"],
            &["a op b"],
            1.0,
        );
        add(
            Some(ModuleKind::MemoryReader),
            "Memory Reader",
            "FROM <table> (column scan)",
            "streams a column from device memory with prefetch",
            &[],
            &["column"],
            1.0,
        );
        add(
            Some(ModuleKind::MemoryWriter),
            "Memory Writer",
            "CREATE TABLE AS / INSERT INTO",
            "packs a stream into device memory lines",
            &["column"],
            &[],
            1.0,
        );
        add(
            Some(ModuleKind::SpmReader),
            "SPM Reader",
            "re-used table reads (PosExplode'd reference)",
            "address, interval, and drain reads from a scratchpad",
            &["addresses"],
            &["values"],
            1.0,
        );
        add(
            Some(ModuleKind::SpmUpdater),
            "SPM Updater",
            "scratchpad builds and GROUP BY COUNT updates",
            "sequential/random/read-modify-write scratchpad writes with RAW interlock",
            &["key,value"],
            &[],
            1.0,
        );
        add(
            Some(ModuleKind::ReadToBases),
            "ReadToBases",
            "ReadExplode(POS, CIGAR, SEQ[, QUAL])",
            "expands one read into per-base rows with Ins/Del sentinels",
            &["POS", "CIGAR", "SEQ", "QUAL?"],
            &["REFPOS", "BASE", "QUAL", "SEQIDX"],
            NOMINAL_READ_LEN,
        );
        add(
            Some(ModuleKind::MdGen),
            "MDGen",
            "EXEC MDGen (custom, §III-F)",
            "emits the MD tag byte stream from joined read/reference bases",
            &["read bases", "ref bases"],
            &["MD bytes"],
            1.0,
        );
        add(
            Some(ModuleKind::BinIdGen),
            "BinIDGen",
            "EXEC BinIDGen (custom, §IV-D)",
            "computes the BQSR cycle-bin and context-bin ids per base",
            &["bases"],
            &["cycle bin", "context bin"],
            1.0,
        );
        add(
            Some(ModuleKind::Fanout),
            "Fanout",
            "multi-consumer dataflow edges",
            "replicates a stream to several queues with joint backpressure",
            &["stream"],
            &["stream ×n"],
            1.0,
        );
        add(
            Some(ModuleKind::Zip),
            "Zip",
            "row assembly / SELECT column lists",
            "lock-step concatenation of selected fields from several streams",
            &["stream ×n"],
            &["rows"],
            1.0,
        );
        // The builtin explode is placeable by name too: `EXEC ReadToBases
        // READS = _` expands to a ReadExplode over the table's
        // conventional POS/CIGAR/SEQ columns.
        r.templates.insert(
            "ReadToBases".to_owned(),
            Arc::new(|inputs: &[String]| {
                let [table] = inputs else {
                    return Err(CoreError::plan(
                        "Exec",
                        format!("ReadToBases takes 1 input table, got {}", inputs.len()),
                    ));
                };
                Ok(LogicalPlan::ReadExplode {
                    input: Box::new(LogicalPlan::Scan { table: table.clone(), partition: None }),
                    pos: Expr::Col(ColRef::bare("POS")),
                    cigar: ColRef::bare("CIGAR"),
                    seq: ColRef::bare("SEQ"),
                    qual: None,
                })
            }),
        );
        r
    }

    /// All registered entries, builtins first, in registration order.
    #[must_use]
    pub fn entries(&self) -> &[ModuleEntry] {
        &self.entries
    }

    /// Registers (or replaces) a user custom module. Once registered the
    /// module is planner-placeable (when it has a plan template) and
    /// `EXEC`-callable after [`ModuleRegistry::install`] (when it has a
    /// software evaluator).
    pub fn register_custom(&mut self, spec: CustomModuleSpec) {
        let CustomModuleSpec { entry, template, eval } = spec;
        let name = entry.name.clone();
        self.entries.retain(|e| e.name != name);
        self.entries.push(entry);
        if let Some(t) = template {
            self.templates.insert(name.clone(), t);
        }
        if let Some(e) = eval {
            self.evals.insert(name, e);
        }
    }

    /// Looks up a module by `EXEC` name, with a structured did-you-mean
    /// [`CoreError::Plan`] for unknown names.
    ///
    /// # Errors
    ///
    /// [`CoreError::Plan`] naming the unknown module (and the closest
    /// registered name, when one is close enough).
    pub fn resolve(&self, name: &str) -> Result<&ModuleEntry, CoreError> {
        if let Some(e) = self.entries.iter().find(|e| e.name == name) {
            return Ok(e);
        }
        let hint = crate::env::suggest(name, self.entries.iter().map(|e| e.name.as_str()))
            .map_or_else(String::new, |s| format!(" (did you mean `{s}`?)"));
        Err(CoreError::plan(
            "Exec",
            format!("unknown module `{name}`{hint}; registered: {}", self.names().join(", ")),
        ))
    }

    /// The plan template of a placeable module, if it has one.
    #[must_use]
    pub fn template(&self, name: &str) -> Option<&PlanTemplate> {
        self.templates.get(name)
    }

    /// Installs every software evaluator into `catalog` so `EXEC` calls
    /// resolve on the §III-B engine.
    pub fn install(&self, catalog: &mut Catalog) {
        for (name, eval) in &self.evals {
            let eval = Arc::clone(eval);
            catalog.register_module(name, Box::new(move |tables| eval(tables)));
        }
    }

    /// Registered module names, registration order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// The hardware module a logical operator maps to (paper §III-D:
    /// "each node in the graph can be mapped to a Genesis hardware
    /// module").
    #[must_use]
    pub fn module_for_operator(&self, plan: &LogicalPlan) -> Option<ModuleKind> {
        Some(match plan {
            LogicalPlan::Scan { .. } => ModuleKind::MemoryReader,
            LogicalPlan::Filter { .. } => ModuleKind::Filter,
            LogicalPlan::Aggregate { .. } => ModuleKind::Reducer,
            LogicalPlan::Join { .. } => ModuleKind::Joiner,
            LogicalPlan::ReadExplode { .. } => ModuleKind::ReadToBases,
            // PosExplode lowers as an all-match read explode (one M run
            // per row) through the same hardware block.
            LogicalPlan::PosExplode { .. } => ModuleKind::ReadToBases,
            // LIMIT over an SPM-resident table becomes the range read; over
            // a stream it is a filter on row index.
            LogicalPlan::Limit { .. } => ModuleKind::SpmReader,
            LogicalPlan::Project { .. } => ModuleKind::Alu,
            // Sorting stays on the host (§IV-B: the host sorts reads); a
            // loop is the per-row delimiters of its stream, not a module.
            LogicalPlan::Sort { .. } | LogicalPlan::ForEach { .. } => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesis_types::{Column, DataType, Field, Schema};

    #[test]
    fn builtins_cover_paper_modules() {
        let reg = ModuleRegistry::with_builtins();
        for expected in [
            "Joiner",
            "Filter",
            "Reducer",
            "Stream ALU",
            "Memory Reader",
            "Memory Writer",
            "SPM Reader",
            "SPM Updater",
            "ReadToBases",
            "MDGen",
            "BinIDGen",
        ] {
            assert!(reg.names().contains(&expected), "missing {expected}");
        }
        let rtb = reg.resolve("ReadToBases").unwrap();
        assert_eq!(rtb.kind, Some(ModuleKind::ReadToBases));
        assert!(rtb.expansion > 1.0, "explode modules declare expansion");
        assert!(reg.template("ReadToBases").is_some(), "builtin explode is placeable");
    }

    #[test]
    fn operators_map_to_modules() {
        let reg = ModuleRegistry::with_builtins();
        let scan = LogicalPlan::Scan { table: "READS".into(), partition: None };
        assert_eq!(reg.module_for_operator(&scan), Some(ModuleKind::MemoryReader));
        let filt = LogicalPlan::Filter {
            input: Box::new(scan),
            pred: genesis_sql::ast::Expr::Number(1),
        };
        assert_eq!(reg.module_for_operator(&filt), Some(ModuleKind::Filter));
    }

    #[test]
    fn unknown_module_gets_did_you_mean() {
        let reg = ModuleRegistry::with_builtins();
        let err = reg.resolve("ReadToBasses").unwrap_err();
        let CoreError::Plan { node, reason } = err else { panic!("want Plan error") };
        assert_eq!(node, "Exec");
        assert!(reason.contains("did you mean `ReadToBases`"), "got: {reason}");
    }

    #[test]
    fn custom_module_registers_and_installs() {
        let mut reg = ModuleRegistry::with_builtins();
        reg.register_custom(
            CustomModuleSpec::new("Ident", "passes its input through")
                .schema(&["rows"], &["rows"])
                .plan_template(|inputs| {
                    Ok(LogicalPlan::Scan { table: inputs[0].clone(), partition: None })
                })
                .software(|tables| Ok(tables[0].clone())),
        );
        assert!(reg.resolve("Ident").is_ok());
        assert!(reg.template("Ident").is_some());
        let mut cat = Catalog::new();
        let t = Table::from_columns(
            Schema::new(vec![Field::new("X", DataType::U8)]),
            vec![Column::U8(vec![7])],
        )
        .unwrap();
        cat.register("T", t.clone());
        reg.install(&mut cat);
        let out = cat.module("Ident").unwrap()(&[&t]).unwrap();
        assert_eq!(out.num_rows(), 1);
    }
}
