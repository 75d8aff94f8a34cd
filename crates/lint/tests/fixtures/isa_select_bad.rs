// Fixture: code paths chosen by instruction set, at build time and at
// run time. Each makes the output bits depend on the build or the host.
#[cfg(target_feature = "avx2")]
const WIDTH: usize = 8;

#[target_feature(enable = "avx2,fma")]
fn dot_v3(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x.mul_add(*y, 0.0)).sum()
}

pub fn lanes() -> usize {
    if cfg!(target_feature = "avx512f") {
        16
    } else {
        4
    }
}

pub fn detected() -> bool {
    is_x86_feature_detected!("fma")
}

pub fn detected_arm() -> bool {
    std::arch::is_aarch64_feature_detected!("neon")
}

pub fn zero() -> f32 {
    use core::arch::x86_64::_mm_setzero_ps;
    0.0
}
