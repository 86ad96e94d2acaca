//! Job digests: the job-list builder, the one-job constructor and the
//! sampled suffix all equal the digest's definition — FNV-1a over
//! (`SIM_VERSION`, config identity, workload name, program image[,
//! sampling suffix]) written one field at a time — and main-config digests
//! stay pinned, so a digest change fails here and not only in the
//! benchmark's row check.

use std::sync::Arc;

use dmdp_core::{CommModel, CoreConfig, SIM_VERSION};
use dmdp_harness::{CampaignSpec, CfgPatch, Digest64, JobSpec, PlannedImage};
use dmdp_isa::Program;
use dmdp_workloads::Scale;

/// The digest stream written field by field, one `write` after another.
fn field_by_field(cfg: &CoreConfig, workload: &str, program: &Program) -> Digest64 {
    let mut d = Digest64::new();
    d.write_str(SIM_VERSION)
        .write_str(&cfg.identity())
        .write_str(workload)
        .write(&program.to_image());
    d
}

/// The variants of the paper-figure union campaign.
fn union_variants() -> Vec<(String, CfgPatch)> {
    [
        ("main", ""),
        ("w4", "width:4"),
        ("rob512", "rob:512,prf:640"),
        ("prf160", "prf:160"),
        ("rmo", "rmo"),
        ("sb32", "sb:32"),
        ("sb64", "sb:64"),
        ("balanced", "balanced"),
        ("nosilent", "nosilent"),
    ]
    .into_iter()
    .map(|(label, knobs)| (label.to_string(), CfgPatch::parse(knobs).unwrap()))
    .collect()
}

#[test]
fn job_list_digests_equal_one_job_at_a_time() {
    let variants = union_variants();
    // 36 configurations per workload (8 + 8 + 8 + 8 + 4 lanes) and 27
    // (8 + 8 + 8 + 2 + 1), so every lane-group width is exercised.
    let model_sets = [
        CommModel::ALL.to_vec(),
        vec![CommModel::Baseline, CommModel::NoSq, CommModel::Dmdp],
    ];
    for scale in [Scale::Test, Scale::Full] {
        for models in &model_sets {
            let spec = CampaignSpec::new("digests", scale)
                .models(models.iter().copied())
                .variants(variants.clone());
            let jobs = spec.jobs().unwrap();
            assert_eq!(jobs.len(), 21 * models.len() * variants.len());
            let mut jobs = jobs.iter();
            for w in dmdp_workloads::all(scale) {
                let image = PlannedImage::new(Arc::new(w.program));
                for &model in models {
                    for (label, patch) in &variants {
                        let job = jobs.next().unwrap();
                        let mut cfg = CoreConfig::new(model);
                        patch.apply(&mut cfg);
                        let want = field_by_field(&cfg, w.name, &image.program).hex();
                        let one = JobSpec::new(w.name, w.suite, model, scale, label, cfg, &image);
                        let at = format!(
                            "{} × {} [{label}] at {}",
                            w.name,
                            model.name(),
                            scale.name()
                        );
                        assert_eq!(
                            (&job.workload[..], job.model, &job.variant[..]),
                            (w.name, model, &label[..]),
                            "{at}"
                        );
                        assert_eq!(one.digest, want, "JobSpec::new, {at}");
                        assert_eq!(job.digest, want, "jobs_over, {at}");
                    }
                }
            }
        }
    }
}

#[test]
fn main_config_digests_are_pinned() {
    // Rows of perfbench/reference.json, whose timing the benchmark checks
    // by digest.
    for (scale, model, want) in [
        (Scale::Full, CommModel::Baseline, "51a35a3254e2246e"),
        (Scale::Full, CommModel::NoSq, "3d13f1ff64e3bdda"),
        (Scale::Huge, CommModel::Baseline, "f32bc11d00999d79"),
        (Scale::Huge, CommModel::Dmdp, "10c701e25edc7b07"),
    ] {
        let spec = CampaignSpec::new("pins", scale)
            .models([model])
            .kernels(["perl"]);
        let jobs = spec.jobs().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(
            jobs[0].digest,
            want,
            "perl × {} at {}",
            model.name(),
            scale.name()
        );
    }
}

#[test]
fn sampled_digests_append_the_suffix_to_the_full_stream() {
    let spec = CampaignSpec::new("sampled", Scale::Test)
        .kernels(["lib", "mcf"])
        .variants(union_variants()[..3].to_vec())
        .sampled(500, 1);
    let jobs = spec.jobs().unwrap();
    assert_eq!(jobs.len(), 2 * 4 * 3);
    let suffix = spec.sampling.unwrap().digest_suffix();
    for job in &jobs {
        let mut want = field_by_field(&job.cfg, &job.workload, &job.program);
        want.write_str(&suffix);
        assert_eq!(
            job.digest,
            want.hex(),
            "{} × {} [{}]",
            job.workload,
            job.model.name(),
            job.variant
        );
    }
}
