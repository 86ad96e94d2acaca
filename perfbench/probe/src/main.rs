//! `dmdp-perfprobe` — the in-process half of the dmdp end-to-end
//! benchmark (`perfbench/run.py` drives it):
//!
//! ```text
//! dmdp-perfprobe setup --scale S
//!     build the campaign job list (workloads, plan caches, digests)
//!     as `dmdp campaign` does, print `ready <jobs>` and exit
//! dmdp-perfprobe campaign --scale S [--interval-insns N --warmup-intervals W]
//!                         --jobs N --out FILE --spans FILE
//!     run the 21 x 4 campaign traced; save its artifact to FILE
//! dmdp-perfprobe served --spec FILE [--spans FILE]
//!     the served_mix load generator; traced when --spans is given
//! ```
//!
//! Each mode except `setup` prints one JSON document on stdout.

mod campaign;
mod served;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use dmdp_harness::{Json, Sampling};
use dmdp_workloads::Scale;

use trace::Tracer;

/// Named per-layer metric values, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        )
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    required(args, name)?
        .parse()
        .map_err(|_| format!("{name}: not a number"))
}

fn scale(args: &[String]) -> Result<Scale, String> {
    let name = required(args, "--scale")?;
    Scale::from_name(name).ok_or_else(|| format!("unknown scale `{name}`"))
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("setup") => {
            let jobs = dmdp_harness::CampaignSpec::new("setup", scale(args)?).jobs()?;
            println!("ready {}", jobs.len());
            Ok(())
        }
        Some("campaign") => {
            let sampling = match flag(args, "--interval-insns") {
                Some(_) => Some(Sampling {
                    interval_insns: parse(args, "--interval-insns")?,
                    warmup_intervals: parse(args, "--warmup-intervals")?,
                }),
                None => None,
            };
            let tr = Tracer::new();
            let out = PathBuf::from(required(args, "--out")?);
            let (wall, metrics) =
                campaign::run(scale(args)?, sampling, parse(args, "--jobs")?, &out, &tr)?;
            trace::write_jsonl(&tr.spans(), &PathBuf::from(required(args, "--spans")?))?;
            let doc = Json::Obj(vec![
                ("wall_s".to_string(), Json::Num(wall)),
                ("metrics".to_string(), metrics.to_json()),
            ]);
            println!("{}", doc.compact());
            Ok(())
        }
        Some("served") => {
            let path = required(args, "--spec")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let spec = served::Spec::from_json(&Json::parse(&text)?)?;
            let spans = flag(args, "--spans");
            let tr = if spans.is_some() {
                Tracer::new()
            } else {
                Tracer::off()
            };
            let doc = served::run(&spec, &tr)?;
            if let Some(p) = spans {
                trace::write_jsonl(&tr.spans(), &PathBuf::from(p))?;
            }
            println!("{}", doc.compact());
            Ok(())
        }
        _ => Err("usage: dmdp-perfprobe setup|campaign|served ... (see the source header)".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dmdp-perfprobe: {e}");
            ExitCode::FAILURE
        }
    }
}
