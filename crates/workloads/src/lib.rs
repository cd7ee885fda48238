//! # reno-workloads — synthetic SPECint-like and MediaBench-like kernels
//!
//! The paper evaluates RENO on SPEC2000 integer and MediaBench programs
//! compiled for Alpha with `-O3`. Those binaries (and the toolchain) are not
//! reproducible here, so this crate substitutes hand-written kernels that
//! reproduce the *instruction-stream properties RENO responds to*:
//!
//! * register-immediate addition density (SPEC ~12%, media ~17% of dynamic
//!   instructions) from address arithmetic, loop control and stack
//!   management;
//! * register move density (~4% average, with mesa/mcf-like outliers);
//! * load/store density and stack spill/reload traffic around calls
//!   (RENO_RA's targets);
//! * working sets: SPEC-like kernels chase pointers through L2-and-beyond
//!   footprints, media-like kernels run MAC loops over small hot buffers;
//! * branch behaviour from data-dependent conditions and call-heavy code.
//!
//! Each kernel is deterministic, self-checking (it folds results into the
//! machine checksum via `out`), and scalable via [`Scale`]: input data comes
//! from the vendored deterministic RNG, so a kernel's architectural result
//! at a given scale is a constant, pinned by the golden-checksum regression
//! test (`tests/golden.rs`). Timing work never moves those checksums —
//! only a deliberate semantic change to a kernel, the ISA, or the
//! functional simulator does.
//!
//! Each [`Workload`] pairs a table-ready name (mirroring the paper's
//! benchmark lists) with an assembled [`reno_isa::Program`]; the suites are
//! what every figure/table binary in `reno-bench` iterates over. Each suite
//! is one `(name, builder)` table, so the names ([`workload_names`]) cost
//! nothing, and [`workload`] builds a single kernel by name.
//!
//! ```
//! use reno_workloads::{all_workloads, media_suite, spec_suite, workload, workload_names, Scale};
//! let spec = spec_suite(Scale::Tiny);
//! let media = media_suite(Scale::Tiny);
//! assert_eq!(spec.len(), 10);
//! assert_eq!(media.len(), 10);
//! assert_eq!(all_workloads(Scale::Tiny).len(), 20);
//! assert_eq!(workload_names().count(), 20);
//! assert_eq!(workload("mcf", Scale::Tiny).map(|w| w.name), Some("mcf"));
//! assert!(workload("nope", Scale::Tiny).is_none());
//! // Scales grow dynamic instruction counts without changing structure.
//! assert!(Scale::Default.factor() > Scale::Small.factor());
//! assert!(Scale::Large.factor() > Scale::Default.factor());
//! ```

mod media;
mod spec;
mod util;

use reno_isa::Program;

/// Workload size: scales iteration counts (and thus dynamic instruction
/// counts) without changing program structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// A few thousand dynamic instructions — unit tests.
    Tiny,
    /// Tens of thousands — integration tests and quick sweeps.
    Small,
    /// Hundreds of thousands — the figures/tables harness.
    Default,
    /// Millions — paper-scale runs, affordable in detailed timing mode only
    /// through the `reno-sample` checkpointed-sampling subsystem.
    Large,
}

impl Scale {
    /// Multiplier applied to each kernel's base iteration count.
    pub fn factor(self) -> usize {
        match self {
            Scale::Tiny => 1,
            Scale::Small => 8,
            Scale::Default => 64,
            Scale::Large => 512,
        }
    }
}

/// A named benchmark program.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Short name used in tables (mirrors the paper's benchmark lists).
    pub name: &'static str,
    /// The assembled program.
    pub program: Program,
}

/// A kernel builder: base-iteration multiplier ([`Scale::factor`]) in,
/// assembled program out.
type Builder = fn(usize) -> Program;

/// The SPECint-like suite, in table order.
const SPEC: [(&str, Builder); 10] = [
    ("gzip.c", spec::gzip_like),
    ("crafty", spec::crafty_like),
    ("mcf", spec::mcf_like),
    ("parser", spec::parser_like),
    ("vortex", spec::vortex_like),
    ("twolf", spec::twolf_like),
    ("gap", spec::gap_like),
    ("perl.i", spec::perl_like),
    ("bzip2", spec::bzip2_like),
    ("vpr.r", spec::vpr_like),
];

/// The MediaBench-like suite, in table order.
const MEDIA: [(&str, Builder); 10] = [
    ("adpcm.en", media::adpcm_like),
    ("g721.de", media::g721_like),
    ("gsm.en", media::gsm_like),
    ("jpg.en", media::jpeg_like),
    ("mpg2.de", media::mpeg2_like),
    ("epic", media::epic_like),
    ("pegw.en", media::pegwit_like),
    ("mesa.t", media::mesa_like),
    ("gs.de", media::gs_like),
    ("unepic", media::unepic_like),
];

fn build(&(name, builder): &(&'static str, Builder), scale: Scale) -> Workload {
    Workload {
        name,
        program: builder(scale.factor()),
    }
}

/// The SPECint-like suite (10 kernels).
pub fn spec_suite(scale: Scale) -> Vec<Workload> {
    SPEC.iter().map(|e| build(e, scale)).collect()
}

/// The MediaBench-like suite (10 kernels).
pub fn media_suite(scale: Scale) -> Vec<Workload> {
    MEDIA.iter().map(|e| build(e, scale)).collect()
}

/// Both suites concatenated.
pub fn all_workloads(scale: Scale) -> Vec<Workload> {
    SPEC.iter().chain(&MEDIA).map(|e| build(e, scale)).collect()
}

/// Names of the SPECint-like suite, in [`spec_suite`] order; builds nothing.
pub fn spec_names() -> impl Iterator<Item = &'static str> {
    SPEC.iter().map(|&(name, _)| name)
}

/// Names of the MediaBench-like suite, in [`media_suite`] order; builds
/// nothing.
pub fn media_names() -> impl Iterator<Item = &'static str> {
    MEDIA.iter().map(|&(name, _)| name)
}

/// Names of both suites, in [`all_workloads`] order; builds nothing.
pub fn workload_names() -> impl Iterator<Item = &'static str> {
    spec_names().chain(media_names())
}

/// Builds the one kernel called `name`, or `None` if no suite has it.
pub fn workload(name: &str, scale: Scale) -> Option<Workload> {
    let entry = SPEC.iter().chain(&MEDIA).find(|(n, _)| *n == name)?;
    Some(build(entry, scale))
}
