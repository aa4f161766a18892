//! `modref` — command-line driver for the side-effect analysis.
//!
//! ```text
//! modref analyze  prog.mp [--no-use] [--no-alias] [--json] [--threads N]
//! modref summary  prog.mp          # per-procedure GMOD/GUSE/RMOD table
//! modref sections prog.mp          # regular sections per call site
//! modref dot      prog.mp --what callgraph|binding   # Graphviz to stdout
//! modref check    prog.mp          # parse + validate only
//! ```

use std::process::ExitCode;

mod commands;
mod options;

/// Exit codes form the CLI's machine-readable contract: 0 success,
/// 1 input/analysis error, 2 usage error, 3 analysis degraded under a
/// budget/deadline/fault (output printed, but conservatively widened).
/// A reader that closes stdout early (`modref analyze big.mp | head`)
/// ends the run quietly with 0: nobody is left to read the rest.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match options::Command::parse(&args) {
        Ok(cmd) => match commands::run(&cmd) {
            Ok(commands::RunStatus::Clean) => ExitCode::SUCCESS,
            Ok(commands::RunStatus::Degraded) => ExitCode::from(3),
            Err(e)
                if e.downcast_ref::<std::io::Error>()
                    .is_some_and(|e| e.kind() == std::io::ErrorKind::BrokenPipe) =>
            {
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(message) => {
            eprintln!("{message}\n\n{}", options::USAGE);
            ExitCode::from(2)
        }
    }
}
