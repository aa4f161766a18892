//! Correctness checks. None of them runs inside a timed region.
//!
//! * `batch_flat`: the DMOD column of every report equals the
//!   `modref-baselines` oracle (equation (1) solved directly), and
//!   MOD ⊇ DMOD at every site.
//! * served workloads: answers equal a scratch `Analyzer` render of a
//!   replica that is maintained independently, by replaying the same edit
//!   lines through `Script::parse → resolve → Program::apply_edit`.

use std::collections::BTreeSet;

use modref_baselines::OracleSolution;
use modref_incr::render::{render_json_proc, render_json_site};
use modref_incr::{Script, SiteSets};
use modref_ir::{CallSiteId, LocalEffects, Program, VarId};
use modref_serve::QueryTarget;
use modref_trace::{parse_json, Json};

use crate::inputs::Op;
use crate::layers::analyzer;

pub fn parse(source: &str) -> Result<Program, String> {
    modref_frontend::parse_program(source)
        .map_err(|e| format!("generated program does not parse: {e}"))
}

fn names(site: &Json, key: &str) -> Result<BTreeSet<String>, String> {
    site.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("report site lacks `{key}`"))?
        .iter()
        .map(|n| {
            n.as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("non-string in `{key}`"))
        })
        .collect()
}

/// Checks one `batch_flat` report against the oracle.
pub fn batch_report(source: &str, report: &str) -> Result<(), String> {
    let program = parse(source)?;
    let effects = LocalEffects::compute(&program);
    let oracle = OracleSolution::solve(&program, effects.imod_all());
    let json = parse_json(report).map_err(|e| format!("report is not JSON: {e}"))?;
    let sites = json
        .get("sites")
        .and_then(Json::as_array)
        .ok_or("report lacks `sites`")?;
    if sites.len() != program.num_sites() {
        return Err(format!(
            "report has {} sites, program {}",
            sites.len(),
            program.num_sites()
        ));
    }
    for (i, site) in sites.iter().enumerate() {
        let want: BTreeSet<String> = oracle
            .dmod_site(CallSiteId::new(i))
            .iter()
            .map(|v| program.var_name(VarId::new(v)).to_owned())
            .collect();
        let dmod = names(site, "dmod")?;
        if dmod != want {
            return Err(format!("site {i}: DMOD differs from the oracle"));
        }
        if !dmod.is_subset(&names(site, "mod")?) {
            return Err(format!("site {i}: MOD does not contain DMOD"));
        }
    }
    Ok(())
}

/// The answers one op's queries returned, kept for checking.
pub struct Answers {
    pub op: usize,
    pub reports: Vec<String>,
}

/// Replays `ops` on a replica of `source` and compares each kept answer
/// with a scratch analysis of the replica at that op. Returns the indices
/// of ops whose answers differ; if the replica cannot apply an edit,
/// every op from there on is reported.
pub fn served_answers(source: &str, ops: &[Op], kept: &[Answers]) -> Result<Vec<usize>, String> {
    let mut replica = parse(source)?;
    let analyzer = analyzer();
    let mut bad = Vec::new();
    let mut next = kept.iter().peekable();
    for (i, op) in ops.iter().enumerate() {
        let applied = Script::parse(&op.edit)
            .map_err(|e| e.to_string())
            .and_then(|s| s.steps()[0].resolve(&replica).map_err(|e| e.to_string()))
            .and_then(|edit| replica.apply_edit(&edit).map_err(|e| e.to_string()));
        match applied {
            Ok((next_program, _)) => replica = next_program,
            Err(e) => {
                eprintln!("replica rejected edit {i} `{}`: {e}", op.edit);
                bad.extend(i..ops.len());
                return Ok(bad);
            }
        }
        let Some(answers) = next.next_if(|a| a.op == i) else {
            continue;
        };
        let summary = analyzer.analyze(&replica);
        let sets = SiteSets::from_summary(&replica, &summary);
        let matches = op.queries.iter().zip(&answers.reports).all(|(q, got)| {
            let want = match q {
                QueryTarget::Site(n) if *n < replica.num_sites() => {
                    render_json_site(&replica, &sets, CallSiteId::new(*n))
                }
                QueryTarget::Proc(name) => match replica
                    .procs()
                    .find(|&p| replica.proc_name(p) == name)
                {
                    Some(p) => render_json_proc(&replica, name, summary.gmod(p), summary.guse(p)),
                    None => return false,
                },
                _ => return false,
            };
            *got == want
        });
        if !matches || answers.reports.len() != op.queries.len() {
            bad.push(i);
        }
    }
    Ok(bad)
}
