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
//! be inspected and executed against a [`Catalog`] on the simulated
//! device: a plan that compiles is a plan that runs. Its `explain` prints
//! the node → module lines the lowering wrote as it built the pipeline,
//! and its `replication` the cost model's choice. `EXEC <module>` calls
//! expand through a [`ModuleRegistry`] of plan templates before lowering.
//! The paper's own Figure 4 script ([`figure4_script`]) compiles into its
//! Figure 7 pipeline: the `FOR` loop becomes per-read
//! items through ReadToBases and a Reducer, and the `LIMIT` window a
//! reference scratchpad read by range. Unsupported shapes return a
//! structured [`CoreError::Unsupported`] naming the offending node rather
//! than silently degrading.

use crate::cost::{
    choose_replication_spill, PipelineProfile, ReplicationChoice, SpillProfile, MAX_REPLICATION,
};
use crate::device::DeviceConfig;
use crate::error::CoreError;
use crate::library::ModuleRegistry;
use crate::lower::{analyze, Lowering};
use crate::perf::AccelStats;
use genesis_sql::ast::{Expr, Statement};
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

    /// A compiler with an explicit module registry — the way a user
    /// template ([`ModuleRegistry::register`]) becomes `EXEC`-placeable.
    #[must_use]
    pub fn with_registry(cfg: DeviceConfig, registry: ModuleRegistry) -> Compiler {
        Compiler { cfg, registry }
    }

    /// The module registry this compiler resolves `EXEC` calls against.
    #[must_use]
    pub fn registry(&self) -> &ModuleRegistry {
        &self.registry
    }

    /// Compiles one logical plan against `catalog`: lowers it node by
    /// node into a module graph, then chooses the replication factor with
    /// [`crate::cost::choose_replication`] over the measured profile of
    /// that graph (the choice [`PipelinePlan::replication`] reports; a
    /// run re-chooses it at the selectivity it binds).
    ///
    /// # Errors
    ///
    /// [`CoreError::Unsupported`] naming the offending plan node when the
    /// plan does not lower.
    pub fn compile(&self, plan: &LogicalPlan, catalog: &Catalog) -> Result<PipelinePlan, CoreError> {
        let lowered = analyze(plan, catalog, &self.cfg)?;
        let replication = choose_replication_for(&lowered.profile, &self.cfg);
        Ok(PipelinePlan { lowered, replication, cfg: self.cfg.clone() })
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

/// The replication choice for one pipeline `profile` on `cfg`: the
/// Figure 8 chooser, with the shared PCIe spill link as a third saturable
/// budget when tiered memory is on. [`Compiler::compile`] makes it over
/// the compile-time profile, every bind over the bound selectivity.
pub(crate) fn choose_replication_for(
    profile: &PipelineProfile,
    cfg: &DeviceConfig,
) -> ReplicationChoice {
    let spill = cfg.tiers.as_ref().map(|t| SpillProfile::project(profile, t, cfg.clock_hz));
    choose_replication_spill(profile, &cfg.mem, MAX_REPLICATION, spill)
}

/// A compiled, executable hardware pipeline: the open handle returned by
/// [`Compiler::compile`].
#[derive(Debug, Clone)]
pub struct PipelinePlan {
    /// Shared with every job bound from this plan.
    lowered: Arc<Lowering>,
    replication: ReplicationChoice,
    cfg: DeviceConfig,
}

impl PipelinePlan {
    /// The cost model's replication decision for this pipeline, over the
    /// catalog it compiled against.
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
    pub fn output_columns(&self) -> impl Iterator<Item = &str> {
        self.lowered.output_columns()
    }

    /// The node → hardware-module mapping the lowering built, one line
    /// per node (paper §III-D's "tree graph"), a `-> host` line per
    /// host-side `Sort`/`Limit`, then the replication decision.
    #[must_use]
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for line in &self.lowered.summary {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&self.replication.summary());
        out.push('\n');
        out
    }

    /// Executes the compiled pipeline on the simulated device and returns
    /// the result table with accelerator statistics. The replication
    /// factor is the cost model's choice from the compile's profile (its
    /// port demand, fabric and expansion) at the selectivity `catalog`'s
    /// data binds: [`PipelinePlan::replication`]'s on the compile catalog.
    ///
    /// # Errors
    ///
    /// Any bind, simulation or verification error from the run.
    pub fn execute(&self, catalog: &Catalog) -> Result<(Table, AccelStats), CoreError> {
        self.prepare_job(catalog, None, None)?.run()
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
        self.prepare_job(catalog, None, Some(factor))?.run()
    }

    /// Binds the compiled pipeline to `catalog`'s current data and to a
    /// request's `literals` (the values of the shape's pushed parameters;
    /// `None` keeps the compiled plan's own), returning a `Send` job that
    /// [`crate::serve::GenesisServer`] can run on a device worker thread.
    /// Without an explicit `factor` the replication is chosen at bind,
    /// as [`PipelinePlan::execute`] chooses it.
    pub(crate) fn prepare_job(
        &self,
        catalog: &Catalog,
        literals: Option<&[u64]>,
        factor: Option<usize>,
    ) -> Result<crate::lower::PreparedJob, CoreError> {
        self.lowered.prepare(&self.cfg, catalog, literals, factor)
    }
}

/// Parses a script and reduces it to the final `INSERT` plan with all
/// views inlined. `EXEC <module> in = _ …` statements resolve against
/// `registry`: the module's plan template expands into a view named
/// `<module>_OUT` (matching the software engine's convention), so
/// downstream statements can scan the module's output like any table.
/// An `INSERT` inside `FOR var IN t` becomes a [`LogicalPlan::ForEach`]
/// over `t`, and `SET` variables substitute into `LIMIT` bounds; a value
/// set from the row of a loop that has ended is that table's column.
/// Also used by [`crate::serve::GenesisServer`] to register named scripts.
///
/// # Errors
///
/// Parse failures surface as [`CoreError::Unsupported`] on the `Script`
/// node; an `EXEC` of a name with no template as a did-you-mean
/// [`CoreError::Plan`] from [`ModuleRegistry::resolve`].
pub fn script_to_plan(src: &str, registry: &ModuleRegistry) -> Result<LogicalPlan, CoreError> {
    let stmts =
        parse_script(src).map_err(|e| CoreError::unsupported("Script", format!("parse error: {e}")))?;
    let mut script = ScriptState::default();
    collect(&stmts, registry, &mut script, &[])?;
    script
        .target
        .ok_or_else(|| CoreError::unsupported("Script", "no INSERT INTO statement to compile"))
}

/// What a script's statements leave behind for its final `INSERT`. Views
/// and variables bind where a statement uses them, so every plan here is
/// already free of both.
#[derive(Default)]
struct ScriptState {
    views: HashMap<String, LogicalPlan>,
    vars: HashMap<String, Expr>,
    target: Option<LogicalPlan>,
}

/// `expr` with every variable replaced by its `SET` expression.
fn substitute(expr: &Expr, vars: &HashMap<String, Expr>) -> Expr {
    match expr {
        Expr::Var(name) => vars.get(name).unwrap_or(expr).clone(),
        Expr::Bin { op, lhs, rhs } => Expr::Bin {
            op: *op,
            lhs: Box::new(substitute(lhs, vars)),
            rhs: Box::new(substitute(rhs, vars)),
        },
        Expr::Col(_) | Expr::Number(_) => expr.clone(),
    }
}

/// Renames the column qualifier `from` to `to` throughout `expr`.
fn requalify(expr: &mut Expr, from: &str, to: &str) {
    match expr {
        Expr::Col(c) if c.table.as_deref() == Some(from) => c.table = Some(to.to_owned()),
        Expr::Bin { lhs, rhs, .. } => {
            requalify(lhs, from, to);
            requalify(rhs, from, to);
        }
        _ => {}
    }
}

/// Collects `stmts` into `script`; `loops` are the enclosing `FOR`
/// loops, outermost first, as (variable, table).
fn collect(
    stmts: &[Statement],
    registry: &ModuleRegistry,
    script: &mut ScriptState,
    loops: &[(&str, &str)],
) -> Result<(), CoreError> {
    for stmt in stmts {
        match stmt {
            Statement::CreateTableAs { name, query } => {
                let plan = inline_views(&lower_query(query), script);
                script.views.insert(name.clone(), plan);
            }
            Statement::Insert { query, .. } => {
                // Inside a loop the INSERT runs once per loop row.
                let mut plan = inline_views(&lower_query(query), script);
                for &(var, table) in loops.iter().rev() {
                    let rows = LogicalPlan::Scan { table: table.to_owned(), partition: None };
                    plan = LogicalPlan::ForEach {
                        var: var.to_owned(),
                        rows: Box::new(inline_views(&rows, script)),
                        body: Box::new(plan),
                    };
                }
                script.target = Some(plan);
            }
            Statement::ForLoop { var, table, body } => {
                let inner: Vec<(&str, &str)> =
                    loops.iter().copied().chain([(var.as_str(), table.as_str())]).collect();
                collect(body, registry, script, &inner)?;
                // The loop has ended: a value set from its row is the
                // table's column (a one-row table's only row).
                for e in script.vars.values_mut() {
                    requalify(e, var, table);
                }
            }
            Statement::Exec { module, inputs } => {
                let plan = inline_views(&registry.resolve(module)?(inputs)?, script);
                script.views.insert(format!("{module}_OUT"), plan);
            }
            Statement::Set { name, expr } => {
                let value = substitute(expr, &script.vars);
                script.vars.insert(name.clone(), value);
            }
            Statement::Declare { .. } => {}
        }
    }
    Ok(())
}

/// Substitutes scans of named views by their (already inlined) defining
/// plans, and variables in `LIMIT` bounds by their current values.
fn inline_views(plan: &LogicalPlan, script: &ScriptState) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan { table, .. } => script.views.get(table).unwrap_or(plan).clone(),
        LogicalPlan::Limit { input, offset, count } => LogicalPlan::Limit {
            input: Box::new(inline_views(input, script)),
            offset: substitute(offset, &script.vars),
            count: substitute(count, &script.vars),
        },
        _ => plan.map_inputs(|input| inline_views(input, script)),
    }
}

/// The paper's Figure 4 script (`scripts/figure4.sql`) over `READS
/// PARTITION (0)` and `REF PARTITION (0)`, adapted to this dialect: the
/// reference table's position column is selected as `POS` via an alias,
/// and the `LIMIT` offset counts from the window start `@wstart` — the
/// partition's first reference position — since `RelevantReference`'s row
/// `i` holds position `@wstart + i`.
#[must_use]
pub fn figure4_script() -> &'static str {
    include_str!("../../../scripts/figure4.sql")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::choose_replication;
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
    fn explain_prints_the_lowering_then_host_epilogues() {
        let mut catalog = Catalog::new();
        catalog.register(
            "READS",
            genesis_types::Table::from_columns(
                Schema::new(vec![Field::new("Q", DataType::U8)]),
                vec![Column::U8(vec![5, 3, 9, 1])],
            )
            .unwrap(),
        );
        let compiled = Compiler::new(DeviceConfig::small())
            .compile_sql("INSERT INTO O SELECT Q FROM READS ORDER BY Q LIMIT 1, 2", &catalog)
            .unwrap();
        let text = compiled.explain();
        let lines: Vec<&str> = text.lines().collect();
        let [scan, .., sort, limit, replication] = lines[..] else { panic!("got:\n{text}") };
        assert!(scan.starts_with("Scan(READS) -> "), "got: {scan}");
        assert_eq!([sort, limit], ["Sort -> host", "Limit -> host"]);
        assert_eq!(replication, compiled.replication().summary());
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
        // A hardware block with no template (`Joiner`) is no more an
        // `EXEC` module than a typo is.
        for module in ["ReadToBasses", "Joiner"] {
            let src = format!("EXEC {module} R = _\nINSERT INTO O SELECT COUNT(*) FROM R");
            let err = script_to_plan(&src, &registry()).unwrap_err();
            let CoreError::Plan { node, reason } = err else { panic!("want Plan error") };
            assert_eq!(node, "Exec");
            assert!(reason.contains(&format!("unknown module `{module}`")), "got: {reason}");
            assert!(reason.contains("ReadToBases"), "got: {reason}");
        }
    }

    #[test]
    fn custom_module_is_planner_placeable_from_sql() {
        let mut reg = ModuleRegistry::with_builtins();
        reg.register("HighQual", |inputs| {
            let [table] = inputs else {
                return Err(CoreError::plan("Exec", "HighQual takes 1 input"));
            };
            Ok(LogicalPlan::Filter {
                input: Box::new(LogicalPlan::Scan { table: table.clone(), partition: None }),
                pred: Expr::Bin {
                    op: BinOp::Ge,
                    lhs: Box::new(Expr::Col(ColRef::bare("QUAL"))),
                    rhs: Box::new(Expr::Number(10)),
                },
            })
        });
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
    fn figure4_script_runs_on_both_engines() {
        // The same script executes under genesis-sql (§III-B semantics)
        // and compiles, over a reference window that starts past 0.
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
                Column::U32(vec![102]),
                Column::U32(vec![106]),
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
                Column::U32(vec![100]),
                Column::ListU8(vec![
                    Base::seq_from_str("ACGTACGT").unwrap().iter().map(|b| b.code()).collect(),
                ]),
            ],
        )
        .unwrap();
        cat.register_partition("REF", 0, reference);
        let compiled =
            Compiler::new(DeviceConfig::small()).compile_sql(figure4_script(), &cat).unwrap();
        let (hw, _) = compiled.execute(&cat).unwrap();
        Script::parse(figure4_script()).unwrap().run(&mut cat).unwrap();
        // Read GTAC at 102..106 vs reference ACGTACGT from 100: GTAC matches.
        for out in [cat.table("Output").unwrap(), &hw] {
            assert_eq!(out.num_rows(), 1);
            assert_eq!(out.get(0, "SUM").unwrap(), Value::U64(4));
        }
    }
}
