//! Convolution padding: the FFT length at which a circular convolution of
//! a row with a kernel equals the linear one.

/// Smallest power of two `>= n`. A row of `n` samples convolved with a
/// kernel of up to `n` taps pads to `next_pow2(2·n)`.
///
/// # Panics
/// Panics if `n == 0` or the result would overflow `usize`.
pub fn next_pow2(n: usize) -> usize {
    assert!(n > 0, "next_pow2 of zero is undefined");
    n.checked_next_power_of_two()
        .expect("next_pow2 overflowed usize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_pow2_basics() {
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1000), 1024);
        assert_eq!(next_pow2(1024), 1024);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn next_pow2_zero_panics() {
        let _ = next_pow2(0);
    }
}
