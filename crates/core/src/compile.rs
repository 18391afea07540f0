//! The logical-plan → hardware-pipeline compiler.
//!
//! Paper §III-D: "For now, our framework assumes that the process of
//! translating SQL-style queries to the hardware pipeline is manual.
//! However, we envision it to be automated in the near future. SQL queries
//! can be easily parsed into a tree graph … each node in the graph can be
//! mapped to a Genesis hardware module, and each edge … to a hardware
//! queue."
//!
//! This module implements that automation. [`Compiler::compile`] lowers
//! any supported [`LogicalPlan`] tree node by node into a hardware module
//! graph and chooses a pipeline replication factor from the cost model
//! (paper Figure 8). The result is an open [`PipelinePlan`] handle that can
//! be inspected (`explain`, `replication`) and executed against a
//! [`Catalog`] on the simulated device: a plan that compiles is a plan
//! that runs. Unsupported shapes return a structured
//! [`CoreError::Unsupported`] naming the offending node rather than
//! silently degrading — including the paper's own Figure 4 script, whose
//! mid-plan `LIMIT` window and explode over a derived stream the lowering
//! does not cover yet (Figure 4 → Figure 7 stays the paper's manual
//! mapping, [`crate::accel::example`]).

use crate::cost::{
    choose_replication, choose_replication_spill, PipelineProfile, ReplicationChoice,
    SpillProfile, MAX_REPLICATION,
};
use crate::device::DeviceConfig;
use crate::error::CoreError;
use crate::library::ModuleRegistry;
use crate::lower::{analyze, Lowering};
use crate::perf::AccelStats;
use genesis_sql::ast::Statement;
use genesis_sql::parser::parse_script;
use genesis_sql::plan::lower_query;
use genesis_sql::{Catalog, LogicalPlan};
use genesis_types::Table;
use std::collections::HashMap;
use std::sync::Arc;

/// The plan→pipeline compiler. Owns the device model the pipelines are
/// costed against; one compiler serves any number of plans.
///
/// ```
/// use genesis_core::compile::Compiler;
/// use genesis_core::device::DeviceConfig;
/// use genesis_sql::{Catalog, parser::parse_script, plan::lower_query, ast::Statement};
/// use genesis_types::{Column, DataType, Field, Schema, Table};
///
/// let mut catalog = Catalog::new();
/// catalog.register(
///     "T",
///     Table::from_columns(
///         Schema::new(vec![Field::new("X", DataType::U32)]),
///         vec![Column::U32((0..64).collect())],
///     )?,
/// );
/// let stmts = parse_script("INSERT INTO O SELECT SUM(X) FROM T")?;
/// let Statement::Insert { query, .. } = &stmts[0] else { unreachable!() };
/// let compiled = Compiler::new(DeviceConfig::small()).compile(&lower_query(query), &catalog)?;
/// let (table, _stats) = compiled.execute(&catalog)?;
/// assert_eq!(table.get(0, "SUM").unwrap(), genesis_types::Value::U64((0u64..64).sum()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Compiler {
    cfg: DeviceConfig,
    registry: ModuleRegistry,
}

impl Compiler {
    /// A compiler targeting the given device model, with the builtin
    /// module library ([`ModuleRegistry::with_builtins`]).
    #[must_use]
    pub fn new(cfg: DeviceConfig) -> Compiler {
        Compiler::with_registry(cfg, ModuleRegistry::with_builtins())
    }

    /// A compiler with an explicit module registry — the way user
    /// [`crate::library::CustomModuleSpec`]s become planner-placeable.
    #[must_use]
    pub fn with_registry(cfg: DeviceConfig, registry: ModuleRegistry) -> Compiler {
        Compiler { cfg, registry }
    }

    /// The module registry this compiler resolves `EXEC` calls and
    /// operator→module mappings against.
    #[must_use]
    pub fn registry(&self) -> &ModuleRegistry {
        &self.registry
    }

    /// Compiles one logical plan against `catalog`: lowers it node by
    /// node into a module graph, then chooses the replication factor with
    /// [`choose_replication`] over the measured profile of that graph.
    ///
    /// # Errors
    ///
    /// [`CoreError::Unsupported`] naming the offending plan node when the
    /// plan does not lower.
    pub fn compile(&self, plan: &LogicalPlan, catalog: &Catalog) -> Result<PipelinePlan, CoreError> {
        let lowered = analyze(plan, catalog, &self.cfg)?;
        let replication = match self.cfg.tiers.as_ref() {
            // Tiered memory: the shared PCIe spill link is a third
            // saturable budget for the replication chooser.
            Some(t) => choose_replication_spill(
                &lowered.profile,
                &self.cfg.mem,
                MAX_REPLICATION,
                Some(SpillProfile::project(&lowered.profile, t, self.cfg.clock_hz)),
            ),
            None => choose_replication(&lowered.profile, &self.cfg.mem, MAX_REPLICATION),
        };
        Ok(PipelinePlan {
            plan: plan.clone(),
            lowered,
            replication,
            cfg: self.cfg.clone(),
            registry: self.registry.clone(),
        })
    }

    /// Parses a whole extended-SQL script against this compiler's
    /// registry and compiles the final `INSERT` plan — a thin composition
    /// of [`script_to_plan`] and [`Compiler::compile`].
    ///
    /// # Errors
    ///
    /// Parse errors surface as [`CoreError::Unsupported`] on the `Script`
    /// node, unknown `EXEC` modules as [`CoreError::Plan`]; everything
    /// else as in [`Compiler::compile`].
    pub fn compile_sql(&self, src: &str, catalog: &Catalog) -> Result<PipelinePlan, CoreError> {
        self.compile(&script_to_plan(src, &self.registry)?, catalog)
    }
}

/// A compiled, executable hardware pipeline: the open handle returned by
/// [`Compiler::compile`].
#[derive(Debug, Clone)]
pub struct PipelinePlan {
    plan: LogicalPlan,
    /// Shared with every job bound from this plan.
    lowered: Arc<Lowering>,
    replication: ReplicationChoice,
    cfg: DeviceConfig,
    registry: ModuleRegistry,
}

impl PipelinePlan {
    /// The source logical plan.
    #[must_use]
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// The cost model's replication decision for this pipeline.
    #[must_use]
    pub fn replication(&self) -> &ReplicationChoice {
        &self.replication
    }

    /// The per-pipeline profile the replication decision was made from.
    #[must_use]
    pub fn profile(&self) -> &PipelineProfile {
        &self.lowered.profile
    }

    /// Output column names of the compiled pipeline.
    #[must_use]
    pub fn output_columns(&self) -> &[String] {
        self.lowered.output_columns()
    }

    /// The node → hardware-module mapping plus the replication decision,
    /// one line per operator (paper §III-D's "tree graph").
    #[must_use]
    pub fn explain(&self) -> String {
        let mut out = explain(&self.plan, &self.registry);
        for line in &self.lowered.summary {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&self.replication.summary());
        out.push('\n');
        out
    }

    /// Executes the compiled pipeline on the simulated device at the
    /// cost-model-chosen replication factor and returns the result table
    /// with accelerator statistics.
    ///
    /// # Errors
    ///
    /// Any bind, simulation or verification error from the run.
    pub fn execute(&self, catalog: &Catalog) -> Result<(Table, AccelStats), CoreError> {
        self.execute_replicated(catalog, self.replication.factor)
    }

    /// Like [`PipelinePlan::execute`] but at an explicit replication
    /// factor (used by benchmarks to compare against the model's choice).
    ///
    /// # Errors
    ///
    /// As for [`PipelinePlan::execute`].
    pub fn execute_replicated(
        &self,
        catalog: &Catalog,
        factor: usize,
    ) -> Result<(Table, AccelStats), CoreError> {
        self.lowered.execute(&self.cfg, catalog, factor.max(1))
    }

    /// Binds the compiled pipeline to `catalog`'s current data, returning a
    /// `Send` job that [`crate::serve::GenesisServer`] can run on a device
    /// worker thread.
    pub(crate) fn prepare_job(
        &self,
        catalog: &Catalog,
        factor: usize,
    ) -> Result<crate::lower::PreparedJob, CoreError> {
        self.lowered.prepare(&self.cfg, catalog, factor.max(1))
    }
}

/// Parses a script and reduces it to the final `INSERT` plan with all
/// views inlined. `EXEC <module> in = _ …` statements resolve against
/// `registry`: a placeable module's plan template expands into a view
/// named `<module>_OUT` (matching the software engine's convention), so
/// downstream statements can scan the module's output like any table.
/// Also used by [`crate::serve::GenesisServer`] to register named scripts.
///
/// # Errors
///
/// Parse failures surface as [`CoreError::Unsupported`] on the `Script`
/// node; unknown `EXEC` module names as a did-you-mean
/// [`CoreError::Plan`] from [`ModuleRegistry::resolve`].
pub fn script_to_plan(src: &str, registry: &ModuleRegistry) -> Result<LogicalPlan, CoreError> {
    let stmts =
        parse_script(src).map_err(|e| CoreError::unsupported("Script", format!("parse error: {e}")))?;
    let mut views: HashMap<String, LogicalPlan> = HashMap::new();
    let mut target: Option<LogicalPlan> = None;
    collect(&stmts, registry, &mut views, &mut target)?;
    let plan = target.ok_or_else(|| {
        CoreError::unsupported("Script", "no INSERT INTO statement to compile")
    })?;
    Ok(inline_views(&plan, &views))
}

fn collect(
    stmts: &[Statement],
    registry: &ModuleRegistry,
    views: &mut HashMap<String, LogicalPlan>,
    target: &mut Option<LogicalPlan>,
) -> Result<(), CoreError> {
    for stmt in stmts {
        match stmt {
            Statement::CreateTableAs { name, query } => {
                views.insert(name.clone(), lower_query(query));
            }
            Statement::Insert { query, .. } => {
                *target = Some(lower_query(query));
            }
            Statement::ForLoop { var, table, body } => {
                // The loop variable ranges over the table: for hardware
                // compilation the whole table streams through, so the
                // variable *is* the table.
                views.insert(
                    var.clone(),
                    LogicalPlan::Scan { table: table.clone(), partition: None },
                );
                collect(body, registry, views, target)?;
            }
            Statement::Exec { module, inputs } => {
                let entry = registry.resolve(module)?;
                // Placeable modules expand into the plan; software-only
                // customs stay host-side (the §III-B engine runs them),
                // so their output view simply does not exist here.
                if let Some(template) = registry.template(&entry.name) {
                    views.insert(format!("{}_OUT", entry.name), template(inputs)?);
                }
            }
            Statement::Declare { .. } | Statement::Set { .. } => {}
        }
    }
    Ok(())
}

/// Substitutes scans of named views by their defining plans, transitively.
fn inline_views(plan: &LogicalPlan, views: &HashMap<String, LogicalPlan>) -> LogicalPlan {
    let recurse = |p: &LogicalPlan| inline_views(p, views);
    match plan {
        LogicalPlan::Scan { table, .. } => match views.get(table) {
            Some(def) => inline_views(def, views),
            None => plan.clone(),
        },
        LogicalPlan::Project { input, items } => LogicalPlan::Project {
            input: Box::new(recurse(input)),
            items: items.clone(),
        },
        LogicalPlan::Filter { input, pred } => LogicalPlan::Filter {
            input: Box::new(recurse(input)),
            pred: pred.clone(),
        },
        LogicalPlan::Join { kind, left, right, left_key, right_key } => LogicalPlan::Join {
            kind: *kind,
            left: Box::new(recurse(left)),
            right: Box::new(recurse(right)),
            left_key: left_key.clone(),
            right_key: right_key.clone(),
        },
        LogicalPlan::Aggregate { input, items, group_by } => LogicalPlan::Aggregate {
            input: Box::new(recurse(input)),
            items: items.clone(),
            group_by: group_by.clone(),
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(recurse(input)),
            keys: keys.clone(),
        },
        LogicalPlan::Limit { input, offset, count } => LogicalPlan::Limit {
            input: Box::new(recurse(input)),
            offset: offset.clone(),
            count: count.clone(),
        },
        LogicalPlan::PosExplode { input, array, init_pos } => LogicalPlan::PosExplode {
            input: Box::new(recurse(input)),
            array: array.clone(),
            init_pos: init_pos.clone(),
        },
        LogicalPlan::ReadExplode { input, pos, cigar, seq, qual } => LogicalPlan::ReadExplode {
            input: Box::new(recurse(input)),
            pos: pos.clone(),
            cigar: cigar.clone(),
            seq: seq.clone(),
            qual: qual.clone(),
        },
    }
}

/// Produces the node → hardware-module mapping for a plan, one line per
/// operator — the "tree graph where each node … is mapped to a Genesis
/// hardware module" (paper §III-D).
#[must_use]
pub fn explain(plan: &LogicalPlan, registry: &ModuleRegistry) -> String {
    fn walk(p: &LogicalPlan, registry: &ModuleRegistry, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        let module = registry
            .module_for_operator(p)
            .map_or_else(|| "-".to_owned(), |k| format!("{k:?}"));
        let label = match p {
            LogicalPlan::Scan { table, .. } => format!("Scan({table})"),
            LogicalPlan::Project { .. } => "Project".to_owned(),
            LogicalPlan::Filter { .. } => "Filter".to_owned(),
            LogicalPlan::Join { kind, .. } => format!("Join({kind:?})"),
            LogicalPlan::Aggregate { .. } => "Aggregate".to_owned(),
            LogicalPlan::Sort { .. } => "Sort (host)".to_owned(),
            LogicalPlan::Limit { .. } => "Limit".to_owned(),
            LogicalPlan::PosExplode { .. } => "PosExplode".to_owned(),
            LogicalPlan::ReadExplode { .. } => "ReadExplode".to_owned(),
        };
        out.push_str(&format!("{indent}{label:<24} -> {module}\n"));
        match p {
            LogicalPlan::Scan { .. } => {}
            LogicalPlan::Project { input, .. }
            | LogicalPlan::Filter { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::PosExplode { input, .. }
            | LogicalPlan::ReadExplode { input, .. } => walk(input, registry, depth + 1, out),
            LogicalPlan::Join { left, right, .. } => {
                walk(left, registry, depth + 1, out);
                walk(right, registry, depth + 1, out);
            }
        }
    }
    let mut out = String::new();
    walk(plan, registry, 0, &mut out);
    out
}

/// The paper's Figure 4 script, adapted to this dialect (the reference
/// table's position column is selected as `POS` via an alias, and the
/// partition id is a literal parameter).
#[must_use]
pub fn figure4_script(partition: u64) -> String {
    format!(
        "/* I1: Extract Reads and Reference Partition P */\n\
         CREATE TABLE ReadPartition AS\n\
         SELECT POS, ENDPOS, CIGAR, SEQ\n\
         FROM READS PARTITION ({partition})\n\
         CREATE TABLE ReferenceRow AS\n\
         SELECT REFPOS AS POS, SEQ\n\
         FROM REF PARTITION ({partition})\n\
         /* I2: posExplode on ReferenceRow */\n\
         CREATE TABLE RelevantReference AS\n\
         PosExplode (ReferenceRow.SEQ, ReferenceRow.POS)\n\
         FROM ReferenceRow\n\
         DECLARE @rlen int\n\
         /* Iterate over Rows */\n\
         FOR SingleRead IN ReadPartition:\n\
           SET @rlen = SingleRead.ENDPOS - SingleRead.POS\n\
           /* Q1: ReadExplode */\n\
           CREATE TABLE #AlignedRead AS\n\
           ReadExplode (SingleRead.POS, SingleRead.CIGAR, SingleRead.SEQ)\n\
           FROM SingleRead\n\
           /* Q2: Inner-Join on position */\n\
           CREATE TABLE #ReadAndRef AS\n\
           SELECT #AlignedRead.SEQ, RelevantReference.SEQ\n\
           FROM #AlignedRead\n\
           INNER JOIN (SELECT * FROM RelevantReference LIMIT SingleRead.POS, @rlen)\n\
           ON #AlignedRead.POS = RelevantReference.POS\n\
           /* Q3: count matching base pairs */\n\
           INSERT INTO Output\n\
           SELECT SUM(#AlignedRead.SEQ == RelevantReference.SEQ)\n\
           FROM #ReadAndRef\n\
         END LOOP;"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::CustomModuleSpec;
    use genesis_sql::ast::{BinOp, ColRef, Expr};
    use genesis_types::{Column, DataType, Field, Schema, Value};

    fn registry() -> ModuleRegistry {
        ModuleRegistry::with_builtins()
    }

    #[test]
    fn unsupported_shape_is_rejected() {
        let plan = script_to_plan(
            "INSERT INTO Out SELECT X FROM A INNER JOIN B ON A.K = B.K",
            &registry(),
        )
        .unwrap();
        // The catalog knows neither table, so the lowering fails.
        let err = Compiler::new(DeviceConfig::small()).compile(&plan, &Catalog::new());
        assert!(err.is_err());
    }

    #[test]
    fn column_reduce_retired_with_cycle_parity() {
        // The retired ColumnReduce fast path's pre-characterized profile
        // (Figure 10 reduce pipeline), inlined verbatim from the deleted
        // fast path. The general path must keep matching it.
        let cfg = DeviceConfig::small();
        let retired = PipelineProfile {
            read_port_bytes: vec![1],
            write_port_bytes: vec![],
            fabric: genesis_hw::ResourceUsage { luts: 3_500, registers: 4_900, bram_bytes: 2_304 },
            expansion: 1.0,
            selectivity: 1.0,
        };
        let retired_choice = choose_replication(&retired, &cfg.mem, MAX_REPLICATION);
        assert_eq!(retired_choice.factor, 16, "paper Figure 8 reduce replication");

        let mut catalog = Catalog::new();
        catalog.register(
            "READS",
            genesis_types::Table::from_columns(
                Schema::new(vec![Field::new("QUAL", DataType::U8)]),
                vec![Column::U8((0u8..64).map(|i| i % 40).collect())],
            )
            .unwrap(),
        );
        let compiled = Compiler::new(cfg)
            .compile_sql("INSERT INTO Out SELECT SUM(QUAL) FROM READS", &catalog)
            .unwrap();
        assert!(compiled.explain().contains("Reducer"));
        // Parity with the retired fast path: identical replication choice
        // and identical simulated cycles at that factor.
        assert_eq!(compiled.replication().factor, retired_choice.factor);
        let (out, general) = compiled.execute(&catalog).unwrap();
        assert_eq!(
            out.get(0, "SUM").unwrap(),
            Value::U64((0u64..64).map(|i| i % 40).sum())
        );
        let (_, fast) = compiled.execute_replicated(&catalog, retired_choice.factor).unwrap();
        assert_eq!(general.cycles, fast.cycles);
    }

    #[test]
    fn explain_lists_modules_per_node() {
        let stmts = parse_script("INSERT INTO O SELECT SUM(Q) FROM READS").unwrap();
        let Statement::Insert { query, .. } = &stmts[0] else { panic!() };
        let plan = lower_query(query);
        let text = explain(&plan, &registry());
        assert!(text.contains("Aggregate"));
        assert!(text.contains("Reducer"));
        assert!(text.contains("Scan(READS)"));
        assert!(text.contains("MemoryReader"));
    }

    #[test]
    fn exec_expands_builtin_module_into_the_plan() {
        let src = "EXEC ReadToBases READS = _\n\
                   INSERT INTO Out SELECT COUNT(*) FROM ReadToBases_OUT";
        let plan = script_to_plan(src, &registry()).unwrap();
        let LogicalPlan::Aggregate { input, .. } = &plan else { panic!("want Aggregate") };
        assert!(
            matches!(**input, LogicalPlan::ReadExplode { .. }),
            "EXEC ReadToBases should place a ReadExplode, got: {input:?}"
        );
    }

    #[test]
    fn exec_unknown_module_is_a_did_you_mean_plan_error() {
        let src = "EXEC ReadToBasses R = _\nINSERT INTO O SELECT COUNT(*) FROM R";
        let err = script_to_plan(src, &registry()).unwrap_err();
        let CoreError::Plan { node, reason } = err else { panic!("want Plan error") };
        assert_eq!(node, "Exec");
        assert!(reason.contains("ReadToBases"), "got: {reason}");
    }

    #[test]
    fn custom_module_is_planner_placeable_from_sql() {
        let mut reg = ModuleRegistry::with_builtins();
        reg.register_custom(
            CustomModuleSpec::new("HighQual", "keeps rows with QUAL >= 10")
                .schema(&["rows"], &["rows"])
                .plan_template(|inputs| {
                    let [table] = inputs else {
                        return Err(CoreError::plan("Exec", "HighQual takes 1 input"));
                    };
                    Ok(LogicalPlan::Filter {
                        input: Box::new(LogicalPlan::Scan {
                            table: table.clone(),
                            partition: None,
                        }),
                        pred: Expr::Bin {
                            op: BinOp::Ge,
                            lhs: Box::new(Expr::Col(ColRef::bare("QUAL"))),
                            rhs: Box::new(Expr::Number(10)),
                        },
                    })
                }),
        );
        let mut catalog = Catalog::new();
        catalog.register(
            "READS",
            genesis_types::Table::from_columns(
                Schema::new(vec![Field::new("QUAL", DataType::U8)]),
                vec![Column::U8(vec![3, 12, 9, 40, 10])],
            )
            .unwrap(),
        );
        let compiled = Compiler::with_registry(DeviceConfig::small(), reg)
            .compile_sql(
                "EXEC HighQual READS = _\n\
                 INSERT INTO Out SELECT QUAL FROM HighQual_OUT",
                &catalog,
            )
            .unwrap();
        let (out, _) = compiled.execute(&catalog).unwrap();
        let got: Vec<Value> =
            (0..out.num_rows()).map(|r| out.get(r, "QUAL").unwrap()).collect();
        assert_eq!(got, vec![Value::U64(12), Value::U64(40), Value::U64(10)]);
    }

    #[test]
    fn figure4_script_also_runs_on_the_software_engine() {
        // The same script must execute under genesis-sql (§III-B semantics).
        use genesis_sql::{Catalog, Script};
        use genesis_types::{Base, Cigar, Column, Value};
        let reads_cigar: Cigar = "4M".parse().unwrap();
        let mut cat = Catalog::new();
        let reads = genesis_types::Table::from_columns(
            genesis_types::Schema::new(vec![
                genesis_types::Field::new("POS", genesis_types::DataType::U32),
                genesis_types::Field::new("ENDPOS", genesis_types::DataType::U32),
                genesis_types::Field::new("CIGAR", genesis_types::DataType::ListU16),
                genesis_types::Field::new("SEQ", genesis_types::DataType::ListU8),
            ]),
            vec![
                Column::U32(vec![2]),
                Column::U32(vec![6]),
                Column::ListU16(vec![reads_cigar.pack().unwrap()]),
                Column::ListU8(vec![
                    Base::seq_from_str("GTAC").unwrap().iter().map(|b| b.code()).collect(),
                ]),
            ],
        )
        .unwrap();
        cat.register_partition("READS", 0, reads);
        let reference = genesis_types::Table::from_columns(
            genesis_types::Schema::new(vec![
                genesis_types::Field::new("REFPOS", genesis_types::DataType::U32),
                genesis_types::Field::new("SEQ", genesis_types::DataType::ListU8),
            ]),
            vec![
                Column::U32(vec![0]),
                Column::ListU8(vec![
                    Base::seq_from_str("ACGTACGT").unwrap().iter().map(|b| b.code()).collect(),
                ]),
            ],
        )
        .unwrap();
        cat.register_partition("REF", 0, reference);
        Script::parse(&figure4_script(0)).unwrap().run(&mut cat).unwrap();
        let out = cat.table("Output").unwrap();
        assert_eq!(out.num_rows(), 1);
        // Read GTAC at positions 2..6 vs reference ACGTACGT: GTAC matches.
        assert_eq!(out.get(0, "SUM").unwrap(), Value::U64(4));
    }
}
