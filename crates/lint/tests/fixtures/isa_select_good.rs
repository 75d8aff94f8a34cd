// Fixture: one portable path, written over fixed lanes; the compiler picks
// the vector width. Mentions in docs and strings are fine, and so is test
// code. A bench binary (crates/bench) may report which target features it
// was compiled with, e.g. `cfg!(target_feature = "avx2")` in a result row:
// that describes a measurement and never feeds back into arithmetic, so
// the rule's library scope leaves it out.
const LANES: usize = 8;

/// Never branch on `target_feature` or `std::arch` here.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    for (ca, cb) in a.chunks(LANES).zip(b.chunks(LANES)) {
        for (l, (x, y)) in ca.iter().zip(cb).enumerate() {
            acc[l] += x * y;
        }
    }
    acc.iter().sum()
}

pub fn name() -> &'static str {
    "is_x86_feature_detected!"
}

#[cfg(target_os = "linux")]
pub fn on_linux() -> bool {
    true
}

#[cfg(test)]
mod tests {
    #[test]
    fn reports_the_build() {
        let _ = cfg!(target_feature = "avx2");
    }
}
