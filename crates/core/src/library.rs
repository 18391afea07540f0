//! The `EXEC` module registry (paper §III-F): the name → plan-template
//! map that `EXEC <module> in1 = _ in2 = _ …` resolves against.
//!
//! A template expands an `EXEC` call over the named input tables into a
//! [`LogicalPlan`] fragment, which [`crate::compile::script_to_plan`]
//! binds as the view `<module>_OUT`; the general compiler then lowers it
//! node by node like any other operator tree. What a plan builds is the
//! lowering's answer alone ([`crate::compile::PipelinePlan::explain`]),
//! and a software-only custom module is a
//! [`genesis_sql::Catalog::register_module`] evaluator on the §III-B
//! engine, not an entry here.

use crate::error::CoreError;
use genesis_sql::ast::{ColRef, Expr};
use genesis_sql::LogicalPlan;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// How the planner expands an `EXEC <module> in1 = _ in2 = _ …` call into
/// a [`LogicalPlan`] fragment over the named input tables.
pub type PlanTemplate =
    Arc<dyn Fn(&[String]) -> Result<LogicalPlan, CoreError> + Send + Sync>;

/// The `EXEC`-placeable modules, by name.
#[derive(Clone, Default)]
pub struct ModuleRegistry {
    templates: BTreeMap<String, PlanTemplate>,
}

impl fmt::Debug for ModuleRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.templates.keys()).finish()
    }
}

impl ModuleRegistry {
    /// The builtin templates: `EXEC ReadToBases READS = _` expands to a
    /// `ReadExplode` over the table's conventional `POS`/`CIGAR`/`SEQ`
    /// columns.
    #[must_use]
    pub fn with_builtins() -> ModuleRegistry {
        let mut r = ModuleRegistry::default();
        r.register("ReadToBases", |inputs| {
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
        });
        r
    }

    /// Registers (or replaces) the template `EXEC name …` expands to.
    pub fn register(
        &mut self,
        name: &str,
        template: impl Fn(&[String]) -> Result<LogicalPlan, CoreError> + Send + Sync + 'static,
    ) {
        self.templates.insert(name.to_owned(), Arc::new(template));
    }

    /// The template `EXEC name …` expands to.
    ///
    /// # Errors
    ///
    /// [`CoreError::Plan`] naming the unknown module (and the closest
    /// registered name, when one is close enough).
    pub fn resolve(&self, name: &str) -> Result<&PlanTemplate, CoreError> {
        if let Some(t) = self.templates.get(name) {
            return Ok(t);
        }
        let names: Vec<&str> = self.templates.keys().map(String::as_str).collect();
        let hint = crate::env::suggest(name, names.iter().copied())
            .map_or_else(String::new, |s| format!(" (did you mean `{s}`?)"));
        Err(CoreError::plan(
            "Exec",
            format!("unknown module `{name}`{hint}; registered: {}", names.join(", ")),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_module_gets_did_you_mean() {
        let reg = ModuleRegistry::with_builtins();
        let Err(CoreError::Plan { node, reason }) = reg.resolve("ReadToBasses") else {
            panic!("want Plan error")
        };
        assert_eq!(node, "Exec");
        assert!(reason.contains("did you mean `ReadToBases`"), "got: {reason}");
    }
}
