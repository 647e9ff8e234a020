//! Runtime SIMD dispatch, written once.

/// The dispatch target every `dispatched!` kernel uses on this CPU.
pub fn dispatch_target() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "portable"
}

/// Define a kernel once and get it compiled three times: `$body` is the
/// safe `#[inline(always)]` function holding the block as written,
/// `$avx2` / `$avx512` are `#[target_feature]` wrappers around it — so
/// each gets its own vectorized compilation of the same code, and the
/// only `unsafe` is entering them — and `$name` dispatches at runtime to
/// the widest one the CPU supports.
macro_rules! dispatched {
    (
        $(#[$doc:meta])*
        $vis:vis fn $name:ident / $body:ident / $avx2:ident / $avx512:ident
        ($($arg:ident: $ty:ty),* $(,)?) $block:block
    ) => {
        $(#[$doc])*
        #[allow(clippy::too_many_arguments)] // whatever the operator takes
        $vis fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx512f") {
                    // SAFETY: same safe body, compiled with AVX-512F
                    // enabled; gated on runtime detection above.
                    unsafe { $avx512($($arg),*) };
                    return;
                }
                if is_x86_feature_detected!("avx2") {
                    // SAFETY: as above, for AVX2.
                    unsafe { $avx2($($arg),*) };
                    return;
                }
            }
            $body($($arg),*)
        }

        #[inline(always)]
        #[allow(clippy::too_many_arguments)]
        fn $body($($arg: $ty),*) $block

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $avx2($($arg: $ty),*) {
            $body($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $avx512($($arg: $ty),*) {
            $body($($arg),*)
        }
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn reports_a_dispatch_target() {
        assert!(["portable", "avx2", "avx512f"].contains(&super::dispatch_target()));
    }
}
