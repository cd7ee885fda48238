//! Golden-checksum regression: the kernels' architectural results are
//! pinned, so any semantic change to the ISA, the functional simulator, or
//! a kernel is caught immediately (timing changes do not affect these).
//!
//! The checksums pin only what each kernel *reads*, so the program images
//! themselves are pinned too: a digest of every instruction and every data
//! byte per kernel, at every scale. A changed byte that no kernel reads, or
//! a moved segment, fails the image check even when the checksum holds.

use reno_func::run_to_completion;
use reno_isa::{encode, Program};
use reno_workloads::{all_workloads, Scale};

// Pinned against the vendored deterministic RNG (vendor/rand, SplitMix64):
// kernel data segments are derived from its bit stream, so these values are
// stable across runs and platforms but specific to this repo's RNG.
const GOLDEN: [(&str, u64); 20] = [
    ("gzip.c", 0x00000000000001d2),
    ("crafty", 0x0000000000000d4c),
    ("mcf", 0x00000000012784e9),
    ("parser", 0x000000000000001d),
    ("vortex", 0x0000000000000190),
    ("twolf", 0x0000000000000073),
    ("gap", 0x03d9e6b3e8e38813),
    ("perl.i", 0x0000000000000027),
    ("bzip2", 0x2901bc60972d72f3),
    ("vpr.r", 0x0000000000000f80),
    ("adpcm.en", 0x451eea5ee9a6851f),
    ("g721.de", 0x00000000000000b4),
    ("gsm.en", 0x000000000038c339),
    ("jpg.en", 0xffffffffffffffca),
    ("mpg2.de", 0x00000000000003e6),
    ("epic", 0x000000000000010e),
    ("pegw.en", 0x0000000057598001),
    ("mesa.t", 0x0000000000002467),
    ("gs.de", 0x000000000000007a),
    ("unepic", 0x0000000000003765),
];

// Large scale (millions of dynamic instructions per kernel, ~132M total):
// the tier the sampling subsystem (`reno-sample`) exists for — detailed
// timing simulation of it is only affordable sampled. The checksums are
// functional, so they pin Large-scale semantics exactly like the tiny ones.
const GOLDEN_LARGE: [(&str, u64); 20] = [
    ("gzip.c", 0x0000000000036bd8),
    ("crafty", 0x00000000001a9800),
    ("mcf", 0x000000025658c260),
    ("parser", 0x0000000000025400),
    ("vortex", 0x00000000000300fa),
    ("twolf", 0x000000000000140c),
    ("gap", 0xb3cd67d1c7102700),
    ("perl.i", 0x0000000000000027),
    ("bzip2", 0x9cceff0072b4b277),
    ("vpr.r", 0x0000000000000f80),
    ("adpcm.en", 0xb3584feec75c0289),
    ("g721.de", 0xffffffffffffc8df),
    ("gsm.en", 0x000000001daaf5c3),
    ("jpg.en", 0x0000000000009b97),
    ("mpg2.de", 0x0000000000001dd0),
    ("epic", 0x0000000000000c00),
    ("pegw.en", 0x0000000049da5492),
    ("mesa.t", 0x000000000006b800),
    ("gs.de", 0x000000000000e744),
    ("unepic", 0x0000000000001200),
];

/// Large-scale kernels that stay affordable in an unoptimized test run
/// (roughly 8M dynamic instructions between them).
const LARGE_SMOKE: [&str; 4] = ["crafty", "mcf", "pegw.en", "gs.de"];

fn check(scale: Scale, golden: &[(&str, u64)], subset: Option<&[&str]>) {
    let workloads = all_workloads(scale);
    assert_eq!(workloads.len(), golden.len());
    let mut checked = 0;
    for (w, (name, golden)) in workloads.iter().zip(golden) {
        assert_eq!(&w.name, name, "suite order changed");
        if subset.is_some_and(|s| !s.contains(name)) {
            continue;
        }
        let (cpu, r) = run_to_completion(&w.program, 1 << 34).unwrap();
        assert!(r.halted);
        assert_eq!(
            cpu.checksum(),
            *golden,
            "{name}: semantic drift (update goldens only if intentional)"
        );
        checked += 1;
    }
    assert_eq!(checked, subset.map_or(golden.len(), <[&str]>::len));
}

#[test]
fn tiny_scale_checksums_are_pinned() {
    check(Scale::Tiny, &GOLDEN, None);
}

#[test]
fn large_scale_smoke_checksums_are_pinned() {
    check(Scale::Large, &GOLDEN_LARGE, Some(&LARGE_SMOKE));
}

/// The full Large sweep (~132M dynamic instructions) is too slow for an
/// unoptimized default test run; CI exercises it in release mode with
/// `cargo test --release -p reno-workloads --test golden -- --ignored`.
#[test]
#[ignore = "~1 minute unoptimized; CI runs it in release mode"]
fn large_scale_checksums_are_pinned() {
    check(Scale::Large, &GOLDEN_LARGE, None);
}

// Program-image digests (see `image_digest`): FNV-1a over the name, entry,
// encoded instructions and each segment's address, length and bytes.
const IMAGE_TINY: [(&str, u64); 20] = [
    ("gzip.c", 0x4d9afb0ebdd907a8),
    ("crafty", 0x00fd15bbd7c6eeba),
    ("mcf", 0x2e13cfba2babd599),
    ("parser", 0xb7239c7b308bd813),
    ("vortex", 0xbad9a3560c18e11e),
    ("twolf", 0xa592dafa880950d6),
    ("gap", 0xcfab6c4c4b5623ee),
    ("perl.i", 0x4be2df8b129c7266),
    ("bzip2", 0x92f647022e11c2cf),
    ("vpr.r", 0x296530075750369f),
    ("adpcm.en", 0x32be8e39a7320db4),
    ("g721.de", 0x048ded3aaf93cbc7),
    ("gsm.en", 0xf58d83aa73b4605a),
    ("jpg.en", 0x1289b6d6040c6f40),
    ("mpg2.de", 0x0a3517f61c0ad47b),
    ("epic", 0x1d65f027b9955fc6),
    ("pegw.en", 0xa3d9b9cb5be6f27c),
    ("mesa.t", 0xd1cfaef4d3fa9e65),
    ("gs.de", 0x8cbf362111c6e3ac),
    ("unepic", 0x2cb128e2fd1dc378),
];

const IMAGE_SMALL: [(&str, u64); 20] = [
    ("gzip.c", 0x840493a6c301e0d8),
    ("crafty", 0x37ca850855efcd4f),
    ("mcf", 0x4460713dd5e07931),
    ("parser", 0x88ee55e1489f8217),
    ("vortex", 0x8ab1c7efcda39e01),
    ("twolf", 0xac3fdc20015d24e5),
    ("gap", 0x191827e3961fb5ca),
    ("perl.i", 0x570add516f9ee720),
    ("bzip2", 0x80dd3fc98e214a34),
    ("vpr.r", 0xd2aba0110233fd05),
    ("adpcm.en", 0x9c95a3c5bb65b011),
    ("g721.de", 0xe8c851654254960a),
    ("gsm.en", 0x140eac71eed2c67f),
    ("jpg.en", 0xed2b7b80f57f6cae),
    ("mpg2.de", 0xb9b0a1f03824fcd3),
    ("epic", 0x4c806764734226e3),
    ("pegw.en", 0xe2345994bd9137e6),
    ("mesa.t", 0xcad25f93ffcf7094),
    ("gs.de", 0xce021ed87c8e92ba),
    ("unepic", 0x32e7f6db799d9995),
];

const IMAGE_DEFAULT: [(&str, u64); 20] = [
    ("gzip.c", 0xe2b4b4f254c50d30),
    ("crafty", 0xa172b716802f6207),
    ("mcf", 0x6b283c75c776a18c),
    ("parser", 0x7015fb213476f861),
    ("vortex", 0x0b0686fb4321a849),
    ("twolf", 0x1134304aa5f60d1a),
    ("gap", 0x65364f49a165a5d1),
    ("perl.i", 0xceb6d3ef66992a93),
    ("bzip2", 0x1c93de202ad2a6c6),
    ("vpr.r", 0x0c6f39abed644415),
    ("adpcm.en", 0x8f68bcf423252aa1),
    ("g721.de", 0x79c77eabf7c97b7f),
    ("gsm.en", 0xa727c93bf4e6050d),
    ("jpg.en", 0x4e2b0433189a9dad),
    ("mpg2.de", 0x89e3e821a86ee21d),
    ("epic", 0x799d3cd64a30454b),
    ("pegw.en", 0x625c05feb4c57ff6),
    ("mesa.t", 0xb360b4047682eb6c),
    ("gs.de", 0x093bd425ee96adfe),
    ("unepic", 0xa2c9f5b746fa5dad),
];

const IMAGE_LARGE: [(&str, u64); 20] = [
    ("gzip.c", 0x3fd8318c15d951ec),
    ("crafty", 0xf2cb8445e9e11abd),
    ("mcf", 0xa5428622f9bed552),
    ("parser", 0x629283efcedad51a),
    ("vortex", 0x3ac66d1a61ee9a69),
    ("twolf", 0x7737cebc3298a658),
    ("gap", 0x4fa2d618722164e2),
    ("perl.i", 0x5129f1f47464c37c),
    ("bzip2", 0xfd484c0ce50067f1),
    ("vpr.r", 0xe818fc067969a581),
    ("adpcm.en", 0xc147565d6a46dc5f),
    ("g721.de", 0x960890e2cd33df4e),
    ("gsm.en", 0xebdcf553a206e3be),
    ("jpg.en", 0x7032bef58d64dfba),
    ("mpg2.de", 0x585ce41f7c4787c3),
    ("epic", 0xe98bd364386286c5),
    ("pegw.en", 0x482c96dc12d8076a),
    ("mesa.t", 0xf1c5c18c4f947f4e),
    ("gs.de", 0x35d89070d8474a97),
    ("unepic", 0x843dd7e609242c8f),
];

/// FNV-1a over everything a [`Program`] hands the simulators.
fn image_digest(p: &Program) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(p.name.as_bytes());
    eat(&(p.entry as u64).to_le_bytes());
    for inst in &p.insts {
        eat(&encode(inst).to_le_bytes());
    }
    for seg in &p.data {
        eat(&seg.addr.to_le_bytes());
        eat(&(seg.bytes.len() as u64).to_le_bytes());
        eat(&seg.bytes);
    }
    h
}

fn check_images(scale: Scale, golden: &[(&str, u64); 20]) {
    let workloads = all_workloads(scale);
    assert_eq!(workloads.len(), golden.len());
    for (w, (name, digest)) in workloads.iter().zip(golden) {
        assert_eq!(&w.name, name, "suite order changed");
        assert_eq!(
            image_digest(&w.program),
            *digest,
            "{name} at {scale:?}: program image changed"
        );
    }
}

#[test]
fn tiny_scale_images_are_pinned() {
    check_images(Scale::Tiny, &IMAGE_TINY);
}

#[test]
fn small_scale_images_are_pinned() {
    check_images(Scale::Small, &IMAGE_SMALL);
}

#[test]
fn default_scale_images_are_pinned() {
    check_images(Scale::Default, &IMAGE_DEFAULT);
}

/// Building every Large kernel is cheap in release but not unoptimized;
/// CI runs it with the Large checksum sweep above.
#[test]
#[ignore = "Large build is slow unoptimized; CI runs it in release mode"]
fn large_scale_images_are_pinned() {
    check_images(Scale::Large, &IMAGE_LARGE);
}
