//! `repro` — regenerates every table and figure of the paper's
//! evaluation section from live simulations.
//!
//! ```text
//! repro fig1      EV vs ICE power split across ambient temperatures
//! repro fig5      cabin-temperature traces per controller
//! repro fig6      MPC pre-cooling against the motor-power profile
//! repro fig7      SoH degradation per drive profile
//! repro fig8      average HVAC power per drive profile
//! repro table1      HVAC power & SoH improvement vs ambient temperature
//! repro ablation    MPC horizon / lifetime-weight ablations (extension)
//! repro robustness  forecast-noise robustness sweep (extension)
//! repro fullcycle   drive + CC-CV recharge ΔSoH comparison (extension)
//! repro all         everything above, in order
//! ```

use std::process::ExitCode;

use ev_core::experiments::{
    ablation_horizon, ablation_w2, fig1, fig5, fig6, fig7_from, fig8_from, full_cycle,
    render_ablation, render_fig1, render_fig5, render_fig6, render_fig7, render_fig8,
    render_full_cycle, render_robustness, render_sweep_report, render_table1, robustness_sweep,
    table1, EvaluationSweep, COMPARISON_AMBIENT_C,
};
use ev_drive::DriveCycle;

fn usage() -> &'static str {
    "usage: repro <fig1|fig5|fig6|fig7|fig8|table1|ablation|robustness|fullcycle|all>"
}

/// The Fig. 7/8 evaluation matrix with telemetry on, so the figures come
/// with a solver-health run report.
fn instrumented_sweep() -> ev_core::experiments::SweepResult {
    EvaluationSweep::new(COMPARISON_AMBIENT_C, DriveCycle::paper_evaluation_set())
        .telemetry(true)
        .run()
}

fn run(which: &str) -> Result<(), String> {
    match which {
        "fig1" => println!("{}", render_fig1(&fig1())),
        "fig5" => println!("{}", render_fig5(&fig5())),
        "fig6" => println!("{}", render_fig6(&fig6())),
        "fig7" => {
            let sweep = instrumented_sweep();
            println!("{}", render_fig7(&fig7_from(&sweep.completed())));
            println!("{}", render_sweep_report(&sweep, true));
        }
        "fig8" => {
            let sweep = instrumented_sweep();
            println!("{}", render_fig8(&fig8_from(&sweep.completed())));
            println!("{}", render_sweep_report(&sweep, true));
        }
        "table1" => println!("{}", render_table1(&table1())),
        "ablation" => {
            println!(
                "{}",
                render_ablation("Ablation — MPC horizon", &ablation_horizon())
            );
            println!(
                "{}",
                render_ablation("Ablation — lifetime weight w2", &ablation_w2())
            );
        }
        "robustness" => println!("{}", render_robustness(&robustness_sweep())),
        "fullcycle" => println!("{}", render_full_cycle(&full_cycle())),
        "all" => {
            println!("{}", render_fig1(&fig1()));
            println!("{}", render_fig5(&fig5()));
            println!("{}", render_fig6(&fig6()));
            // Figs. 7 and 8 share one sweep; run it once.
            let sweep = instrumented_sweep();
            let cells = sweep.completed();
            println!("{}", render_fig7(&fig7_from(&cells)));
            println!("{}", render_fig8(&fig8_from(&cells)));
            println!("{}", render_sweep_report(&sweep, true));
            println!("{}", render_table1(&table1()));
            println!(
                "{}",
                render_ablation("Ablation — MPC horizon", &ablation_horizon())
            );
            println!(
                "{}",
                render_ablation("Ablation — lifetime weight w2", &ablation_w2())
            );
            println!("{}", render_robustness(&robustness_sweep()));
            println!("{}", render_full_cycle(&full_cycle()));
        }
        other => return Err(format!("unknown experiment '{other}'\n{}", usage())),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = match args.first() {
        Some(w) => w.as_str(),
        None => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match run(which) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
