//! Regenerates the tables and figures of the paper's §VI:
//! `paper <table1..7|figure4|figure5|all> [--scale X] [--seed N]`.
use cubelsi_bench::*;
use std::time::Duration;

const USAGE: &str = "usage: paper <table1|table2|table3|table4|table5|table6|table7|figure4|figure5|all> [--scale X] [--seed N]
  --scale X   fraction of the paper's Table II dataset sizes (finite, > 0; default 0.02)
  --seed N    master seed (default 2011)";

/// Every experiment, in the order `all` prints them.
const EXPERIMENTS: [&str; 9] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7", "figure4", "figure5",
];

/// Parses everything after the program name. Anything it does not
/// understand is an error: a harness that runs on defaults after a typo
/// prints numbers for a run nobody asked for.
fn parse_args(args: &[String]) -> Result<(&'static str, RunOptions), String> {
    let mut args = args.iter();
    let what = args.next().ok_or("missing experiment name")?;
    let what = std::iter::once("all")
        .chain(EXPERIMENTS)
        .find(|name| name == what)
        .ok_or_else(|| format!("unknown experiment '{what}'"))?;
    let mut opts = RunOptions::default();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--scale" => {
                let v = value()?;
                opts.scale = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => s,
                    _ => return Err(format!("--scale: '{v}' is not a finite number > 0")),
                };
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: '{v}' is not an unsigned integer"))?;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok((what, opts))
}

fn print_experiment(name: &str, contexts: &[ExperimentContext], opts: RunOptions) {
    // Contexts are delicious, bibsonomy, lastfm; the paper runs the
    // Table I and IV studies on Delicious and Table III on Bibsonomy.
    match name {
        "table1" => println!("{}", table1(&contexts[0], opts.seed).to_text()),
        "table2" => println!("{}", table2(opts).to_text()),
        "table3" => println!("{}", table3(&contexts[1], opts.seed).to_text()),
        "table4" => println!("{}", table4(&contexts[0], opts.seed).to_text()),
        // 60 s stands in for the paper's 100-hour cutoff of dense CubeSim.
        "table5" => println!(
            "{}",
            table5(contexts, opts.seed, Duration::from_secs(60)).to_text()
        ),
        "table6" => println!("{}", table6(contexts, opts.seed).to_text()),
        "table7" => println!("{}", table7(contexts, opts.seed).to_text()),
        "figure4" => {
            for ctx in contexts {
                println!("{}", figure4_panel(ctx, opts.seed).to_text());
            }
        }
        "figure5" => println!("{}", figure5(contexts, opts.seed).to_text()),
        other => unreachable!("parse_args admits only EXPERIMENTS, not '{other}'"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (what, opts) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    // `table2` builds its own raw corpora and reads no context.
    let contexts = if what == "table2" {
        Vec::new()
    } else {
        prepare_contexts(opts)
    };
    if what == "all" {
        eprintln!(
            "# CubeLSI experiment suite (scale {}, seed {})",
            opts.scale, opts.seed
        );
        for name in EXPERIMENTS {
            print_experiment(name, &contexts, opts);
        }
    } else {
        print_experiment(what, &contexts, opts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(&'static str, RunOptions), String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn well_formed_invocations_parse() {
        let (what, opts) = parse(&["table3"]).unwrap();
        assert_eq!(what, "table3");
        assert_eq!((opts.scale, opts.seed), (DEFAULT_SCALE, DEFAULT_SEED));
        let (what, opts) = parse(&["all", "--seed", "7", "--scale", "0.1"]).unwrap();
        assert_eq!(what, "all");
        assert_eq!((opts.scale, opts.seed), (0.1, 7));
    }

    #[test]
    fn missing_or_unknown_experiment_is_rejected() {
        assert!(parse(&[]).unwrap_err().contains("missing experiment"));
        assert!(parse(&["table8"]).unwrap_err().contains("'table8'"));
        assert!(parse(&["--scale", "0.1"])
            .unwrap_err()
            .contains("unknown experiment"));
    }

    #[test]
    fn unknown_flag_or_extra_argument_is_rejected() {
        assert!(parse(&["figure4", "--sclae", "0.1"])
            .unwrap_err()
            .contains("'--sclae'"));
        assert!(parse(&["figure4", "table3"])
            .unwrap_err()
            .contains("'table3'"));
    }

    #[test]
    fn missing_value_is_rejected() {
        assert!(parse(&["figure4", "--seed"])
            .unwrap_err()
            .contains("--seed requires a value"));
        assert!(parse(&["figure4", "--seed", "1", "--scale"])
            .unwrap_err()
            .contains("--scale requires"));
    }

    #[test]
    fn unparsable_value_is_rejected() {
        assert!(parse(&["figure4", "--scale", "0.1x"])
            .unwrap_err()
            .contains("'0.1x'"));
        assert!(parse(&["figure4", "--seed", "-3"])
            .unwrap_err()
            .contains("'-3'"));
        assert!(parse(&["figure4", "--seed", "2011.0"])
            .unwrap_err()
            .contains("'2011.0'"));
    }

    #[test]
    fn non_finite_or_non_positive_scale_is_rejected() {
        for bad in ["0", "-0.02", "inf", "NaN", "-inf"] {
            let err = parse(&["figure4", "--scale", bad]).unwrap_err();
            assert!(err.contains("finite number > 0"), "{bad}: {err}");
        }
    }
}
