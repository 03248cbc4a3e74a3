//! Property-based tests for the error-control codes.

use dve_ecc::code::{CheckOutcome, CorrectionCode, DetectionCode};
use dve_ecc::gf::{reference, Gf16, Gf256};
use dve_ecc::inject::{FaultInjector, FaultKind};
use dve_ecc::rs::{DecodePolicy, Rs};
use dve_ecc::rs16::Rs16Detect;
use dve_sim::rng::SplitMix64;
use proptest::prelude::*;

proptest! {
    // ---- Galois fields ------------------------------------------------

    #[test]
    fn gf256_field_axioms(a in 0u8.., b in 0u8.., c in 0u8..) {
        prop_assert_eq!(Gf256::mul(a, b), Gf256::mul(b, a));
        prop_assert_eq!(
            Gf256::mul(Gf256::mul(a, b), c),
            Gf256::mul(a, Gf256::mul(b, c))
        );
        prop_assert_eq!(
            Gf256::mul(a, Gf256::add(b, c)),
            Gf256::add(Gf256::mul(a, b), Gf256::mul(a, c))
        );
    }

    #[test]
    fn gf256_division_inverts_multiplication(a in 0u8.., b in 1u8..) {
        prop_assert_eq!(Gf256::div(Gf256::mul(a, b), b), a);
    }

    #[test]
    fn gf16_field_axioms(a in 0u16.., b in 0u16.., c in 0u16..) {
        prop_assert_eq!(Gf16::mul(a, b), Gf16::mul(b, a));
        prop_assert_eq!(Gf16::mul(Gf16::mul(a, b), c), Gf16::mul(a, Gf16::mul(b, c)));
        prop_assert_eq!(
            Gf16::mul(a, Gf16::add(b, c)),
            Gf16::add(Gf16::mul(a, b), Gf16::mul(a, c))
        );
    }

    #[test]
    fn gf16_inverse(a in 1u16..) {
        prop_assert_eq!(Gf16::mul(a, Gf16::inv(a)), 1);
    }

    // ---- Table-driven kernels vs the shift-and-add oracle -------------
    //
    // The hot path multiplies through 384 KiB log/antilog tables; the
    // `reference` module keeps the branch-per-bit schoolbook form. These
    // properties pin the two implementations together on random inputs
    // (the build also runs exhaustive sweeps for GF(2^8) in unit tests,
    // but GF(2^16)×GF(2^16) is too large to sweep, hence sampling here).

    #[test]
    fn gf256_table_mul_matches_reference(a in 0u8.., b in 0u8..) {
        prop_assert_eq!(Gf256::mul(a, b), reference::gf256_mul(a, b));
    }

    #[test]
    fn gf16_table_mul_matches_reference(a in 0u16.., b in 0u16..) {
        prop_assert_eq!(Gf16::mul(a, b), reference::gf16_mul(a, b));
    }

    #[test]
    fn gf16_table_pow_and_inv_match_reference(a in 1u16.., n in 0u32..200_000) {
        prop_assert_eq!(Gf16::pow(a, n), reference::gf16_pow(a, n));
        prop_assert_eq!(Gf16::inv(a), reference::gf16_inv(a));
    }

    #[test]
    fn gf256_slice_kernels_match_scalar(
        acc in proptest::collection::vec(any::<u8>(), 1..80),
        src_seed in any::<u64>(),
        c in 0u8..,
    ) {
        let src: Vec<u8> = acc
            .iter()
            .enumerate()
            .map(|(i, _)| (src_seed.rotate_left(i as u32) & 0xFF) as u8)
            .collect();
        let mut fast = acc.clone();
        Gf256::fma_slice(&mut fast, &src, c);
        let slow: Vec<u8> = acc
            .iter()
            .zip(&src)
            .map(|(&a, &s)| a ^ reference::gf256_mul(s, c))
            .collect();
        prop_assert_eq!(&fast, &slow);

        let mut fast2 = acc.clone();
        Gf256::mul_slice_assign(&mut fast2, c);
        let slow2: Vec<u8> = acc.iter().map(|&a| reference::gf256_mul(a, c)).collect();
        prop_assert_eq!(&fast2, &slow2);
    }

    #[test]
    fn gf16_slice_kernels_match_scalar(
        buf in proptest::collection::vec(any::<u16>(), 1..48),
        c in 0u16..,
    ) {
        let mut fast = buf.clone();
        Gf16::mul_slice_assign(&mut fast, c);
        let slow: Vec<u16> = buf.iter().map(|&a| reference::gf16_mul(a, c)).collect();
        prop_assert_eq!(&fast, &slow);
    }

    // ---- Allocation-free hot paths vs the allocating compat API -------

    #[test]
    fn rs_encode_into_matches_encode(
        data in proptest::collection::vec(any::<u8>(), 16),
    ) {
        // chipkill (nsym = 2) takes the syndrome-solve fast path; the
        // 4-check-symbol code exercises the generic LFSR.
        for rs in [Rs::chipkill(), Rs::dsd(), Rs::new(20, 16, DecodePolicy::Correct)] {
            let mut fast = vec![0u8; rs.codeword_len()];
            rs.encode_into(&data, &mut fast);
            prop_assert_eq!(&fast, &rs.encode(&data));
        }
    }

    #[test]
    fn rs_decode_in_place_matches_check_and_repair(
        data in proptest::collection::vec(any::<u8>(), 16),
        p1 in 0usize..18,
        p2 in 0usize..18,
        e1 in 0u8..,
        e2 in 0u8..,
    ) {
        // Clean, single- and double-symbol corruptions, against both the
        // correcting (Chipkill) and detect-only (DSD) policies: the
        // scratch-reusing decode must agree with the compat API on the
        // outcome *and* on the final buffer contents.
        for rs in [Rs::chipkill(), Rs::dsd()] {
            let cw = rs.encode(&data);
            let mut a = cw.clone();
            a[p1] ^= e1;
            a[p2] ^= e2;
            let mut b = a.clone();
            let mut scratch = rs.make_scratch();
            let fast = rs.decode_in_place(&mut a, &mut scratch);
            let slow = rs.check_and_repair(&mut b);
            prop_assert_eq!(fast, slow);
            prop_assert_eq!(&a, &b);
        }
    }

    #[test]
    fn rs_scratch_reuse_is_stateless(
        d1 in proptest::collection::vec(any::<u8>(), 16),
        d2 in proptest::collection::vec(any::<u8>(), 16),
        pos in 0usize..18,
        err in 1u8..,
    ) {
        // A scratch dirtied by a prior (corrupted) decode must not leak
        // state into the next decode.
        let rs = Rs::chipkill();
        let mut scratch = rs.make_scratch();
        let mut first = rs.encode(&d1);
        first[pos] ^= err;
        let _ = rs.decode_in_place(&mut first, &mut scratch);
        let mut second = rs.encode(&d2);
        second[pos] ^= err;
        let reused = rs.decode_in_place(&mut second, &mut scratch);
        let mut fresh_cw = rs.encode(&d2);
        fresh_cw[pos] ^= err;
        let fresh = rs.decode_in_place(&mut fresh_cw, &mut rs.make_scratch());
        prop_assert_eq!(reused, fresh);
        prop_assert_eq!(&second, &fresh_cw);
    }

    #[test]
    fn tsd_encode_into_matches_encode_and_fused_check(
        data in proptest::collection::vec(any::<u8>(), 64),
        pos in 0usize..35,
        err in 0u16..,
    ) {
        // tsd() (3 check symbols) takes the syndrome-solve parity path
        // and the fully fused table-free syndrome pass; the
        // 2-check-symbol variant exercises the generic loops.
        for code in [Rs16Detect::tsd(64), Rs16Detect::new(64, 2)] {
            let mut fast = vec![0u8; code.codeword_len()];
            code.encode_into(&data, &mut fast);
            let cw = code.encode(&data);
            prop_assert_eq!(&fast, &cw);
            let mut bad = cw.clone();
            let pos = pos % (code.codeword_len() / 2);
            let sym = u16::from_be_bytes([bad[2 * pos], bad[2 * pos + 1]]) ^ err;
            bad[2 * pos..2 * pos + 2].copy_from_slice(&sym.to_be_bytes());
            // err == 0 keeps the word clean; the check must agree with
            // whether anything actually changed.
            prop_assert_eq!(code.check(&bad).is_good(), err == 0);
        }
    }

    // ---- Fast paths vs the general algorithms -------------------------

    #[test]
    fn syndrome_solve_encoders_match_the_lfsr(
        seed in any::<u64>(),
        k in 1usize..254,
        words in 1usize..40,
    ) {
        // Any nsym = 2 code over GF(2^8) and any 3-check code over
        // GF(2^16) solve their parity from the data syndromes; the
        // textbook LFSR division must give the same bytes.
        let mut rng = SplitMix64::new(seed);
        let mut bytes = |len: usize| -> Vec<u8> { (0..len).map(|_| rng.next_u64() as u8).collect() };
        for rs in [Rs::new(k + 2, k, DecodePolicy::Correct), Rs::chipkill()] {
            let data = bytes(rs.data_len());
            prop_assert_eq!(&rs.encode(&data)[data.len()..], &lfsr_parity8(&data, 2)[..]);
        }
        for tsd in [Rs16Detect::new(2 * words, 3), Rs16Detect::tsd(64)] {
            let data = bytes(tsd.data_len());
            let parity: Vec<u8> = lfsr_parity16(&data, 3)
                .iter()
                .flat_map(|p| p.to_be_bytes())
                .collect();
            prop_assert_eq!(&tsd.encode(&data)[data.len()..], &parity[..]);
        }
    }

    #[test]
    fn rs_closed_form_matches_general_decode_on_heavy_errors(
        seed in any::<u64>(),
        n in 3usize..=255,
        errors in 3usize..=18,
    ) {
        // Three or more wrong symbols: DUE or a miscorrection, and the
        // closed form must pick the same one (same outcome, same
        // syndrome weight, same repaired bytes) as BM/Chien/Forney.
        let mut rng = SplitMix64::new(seed);
        let rs = Rs::new(n, n - 2, DecodePolicy::Correct);
        let data: Vec<u8> = (0..n - 2).map(|_| rng.next_u64() as u8).collect();
        let mut cw = rs.encode(&data);
        for _ in 0..errors.min(n) {
            let pos = rng.next_below(n as u64) as usize;
            cw[pos] ^= 1 + rng.next_below(255) as u8;
        }
        assert_closed_form_matches_general(&rs, &cw);
    }

    // ---- Reed–Solomon -------------------------------------------------

    #[test]
    fn rs_clean_roundtrip(data in proptest::collection::vec(any::<u8>(), 16)) {
        let rs = Rs::chipkill();
        let cw = rs.encode(&data);
        prop_assert_eq!(rs.check(&cw), CheckOutcome::NoError);
        prop_assert_eq!(rs.extract_data(&cw), data);
    }

    #[test]
    fn rs_corrects_any_single_symbol(
        data in proptest::collection::vec(any::<u8>(), 16),
        pos in 0usize..18,
        err in 1u8..,
    ) {
        let rs = Rs::chipkill();
        let mut cw = rs.encode(&data);
        cw[pos] ^= err;
        let outcome = rs.check_and_repair(&mut cw);
        prop_assert_eq!(outcome, CheckOutcome::Corrected { symbols_fixed: 1 });
        prop_assert_eq!(rs.extract_data(&cw), data);
    }

    #[test]
    fn rs_detect_only_never_mutates(
        data in proptest::collection::vec(any::<u8>(), 16),
        pos in 0usize..18,
        err in 1u8..,
    ) {
        let rs = Rs::dsd();
        let mut cw = rs.encode(&data);
        cw[pos] ^= err;
        let before = cw.clone();
        let outcome = rs.check_and_repair(&mut cw);
        let detected = matches!(outcome, CheckOutcome::DetectedUncorrectable { .. });
        prop_assert!(detected);
        prop_assert_eq!(cw, before);
    }

    #[test]
    fn rs_t2_corrects_any_double_symbol(
        data in proptest::collection::vec(any::<u8>(), 16),
        p1 in 0usize..20,
        p2 in 0usize..20,
        e1 in 1u8..,
        e2 in 1u8..,
    ) {
        prop_assume!(p1 != p2);
        let rs = Rs::new(20, 16, DecodePolicy::Correct);
        let mut cw = rs.encode(&data);
        cw[p1] ^= e1;
        cw[p2] ^= e2;
        let outcome = rs.check_and_repair(&mut cw);
        prop_assert_eq!(outcome, CheckOutcome::Corrected { symbols_fixed: 2 });
        prop_assert_eq!(rs.extract_data(&cw), data);
    }

    #[test]
    fn tsd_detects_up_to_three_symbols(
        data in proptest::collection::vec(any::<u8>(), 64),
        positions in proptest::collection::btree_set(0usize..35, 1..=3),
        err in 1u16..,
    ) {
        let tsd = Rs16Detect::tsd(64);
        let cw = tsd.encode(&data);
        let mut bad = cw.clone();
        for &p in &positions {
            let cur = u16::from_be_bytes([bad[2 * p], bad[2 * p + 1]]) ^ err;
            bad[2 * p..2 * p + 2].copy_from_slice(&cur.to_be_bytes());
        }
        prop_assert!(!tsd.check(&bad).is_good());
    }

    // ---- Fault injector driving the codes (campaign hooks) ------------

    #[test]
    fn injected_single_symbol_is_always_corrected(
        data in proptest::collection::vec(any::<u8>(), 16),
        pos in 0usize..18,
        seed in any::<u64>(),
    ) {
        // The campaign corrupts exactly the failed chip's symbol through
        // inject_symbols_at; RS(18,16) must repair any such error.
        let rs = Rs::chipkill();
        let mut cw = rs.encode(&data);
        let mut inj = FaultInjector::new(seed);
        let touched = inj.inject_symbols_at(&mut cw, &[pos]);
        prop_assert_eq!(touched, vec![pos]);
        let outcome = rs.check_and_repair(&mut cw);
        prop_assert_eq!(outcome, CheckOutcome::Corrected { symbols_fixed: 1 });
        prop_assert_eq!(rs.extract_data(&cw), data);
    }

    #[test]
    fn injected_double_symbol_is_never_silent(
        data in proptest::collection::vec(any::<u8>(), 16),
        positions in proptest::collection::btree_set(0usize..18, 2),
        seed in any::<u64>(),
    ) {
        // Two distinct symbol errors can never zero both syndromes
        // (S₀ = S₁ = 0 would force the two error locators to coincide),
        // so detection of doubles is guaranteed — even though the
        // *correcting* decoder may miscorrect them (~7%, the SDC channel
        // the campaign measures).
        let rs = Rs::chipkill();
        let cw = rs.encode(&data);
        let mut bad = cw.clone();
        let positions: Vec<usize> = positions.into_iter().collect();
        let mut inj = FaultInjector::new(seed);
        inj.inject_symbols_at(&mut bad, &positions);
        prop_assert_ne!(rs.check(&bad), CheckOutcome::NoError);
    }

    #[test]
    fn dsd_detect_only_never_repairs_injected_faults(
        data in proptest::collection::vec(any::<u8>(), 16),
        chips in 1usize..=4,
        seed in any::<u64>(),
    ) {
        // Under Dvé the local code relinquishes correction: whatever the
        // injector throws at a DSD codeword, the outcome is detection
        // (never Corrected) and the codeword is left untouched for the
        // replica-recovery path.
        let dsd = Rs::dsd();
        let mut cw = dsd.encode(&data);
        let mut inj = FaultInjector::new(seed);
        inj.inject(&mut cw, FaultKind::MultiChip { count: chips });
        let before = cw.clone();
        let outcome = dsd.check_and_repair(&mut cw);
        prop_assert!(!matches!(outcome, CheckOutcome::Corrected { .. }));
        prop_assert_eq!(cw, before);
    }

    #[test]
    fn tsd_detects_injected_faults_up_to_three_symbols(
        data in proptest::collection::vec(any::<u8>(), 64),
        positions in proptest::collection::btree_set(0usize..35, 1..=3),
        seed in any::<u64>(),
    ) {
        // The TSD guarantee the paper leans on (§IV-B): any ≤3 corrupted
        // 16-bit symbols are detected.
        let tsd = Rs16Detect::tsd(64);
        let mut cw = tsd.encode(&data);
        let positions: Vec<usize> = positions.into_iter().collect();
        let mut inj = FaultInjector::new(seed);
        let touched = inj.inject_symbols16_at(&mut cw, &positions);
        prop_assert!(!touched.is_empty());
        prop_assert!(!tsd.check(&cw).is_good());
    }

    #[test]
    fn injector_is_deterministic_and_reports_touched_bytes(
        len in 8usize..64,
        seed in any::<u64>(),
        chips in 1usize..=4,
    ) {
        let kind = FaultKind::MultiChip { count: chips };
        let mut a = vec![0u8; len];
        let mut b = vec![0u8; len];
        let ta = FaultInjector::new(seed).inject(&mut a, kind);
        let tb = FaultInjector::new(seed).inject(&mut b, kind);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&ta, &tb);
        // Every touched byte actually changed; no untouched byte did.
        for (i, &byte) in a.iter().enumerate() {
            prop_assert_eq!(byte != 0, ta.contains(&i));
        }
    }
}

/// Systematic parity by LFSR long division over GF(2^8) with the
/// generator Π_{i<nsym} (x + α^i): the textbook encoder, built on the
/// shift-and-add multiplier so it shares no table with the codec.
fn lfsr_parity8(data: &[u8], nsym: usize) -> Vec<u8> {
    let mut g = vec![1u8];
    for i in 0..nsym {
        let root = Gf256::alpha_pow(i as u32);
        let mut next = vec![0u8; g.len() + 1];
        for (j, &c) in g.iter().enumerate() {
            next[j] ^= c;
            next[j + 1] ^= reference::gf256_mul(c, root);
        }
        g = next;
    }
    let mut rem = vec![0u8; nsym];
    for &d in data {
        let coef = d ^ rem[0];
        rem.rotate_left(1);
        rem[nsym - 1] = 0;
        for (r, &gc) in rem.iter_mut().zip(&g[1..]) {
            *r ^= reference::gf256_mul(gc, coef);
        }
    }
    rem
}

/// [`lfsr_parity8`] over GF(2^16), on big-endian 16-bit data symbols.
fn lfsr_parity16(data: &[u8], nsym: usize) -> Vec<u16> {
    let mut g = vec![1u16];
    for i in 0..nsym {
        let root = Gf16::alpha_pow(i as u32);
        let mut next = vec![0u16; g.len() + 1];
        for (j, &c) in g.iter().enumerate() {
            next[j] ^= c;
            next[j + 1] ^= reference::gf16_mul(c, root);
        }
        g = next;
    }
    let mut rem = vec![0u16; nsym];
    for pair in data.chunks_exact(2) {
        let coef = u16::from_be_bytes([pair[0], pair[1]]) ^ rem[0];
        rem.rotate_left(1);
        rem[nsym - 1] = 0;
        for (r, &gc) in rem.iter_mut().zip(&g[1..]) {
            *r ^= reference::gf16_mul(gc, coef);
        }
    }
    rem
}

/// Decodes `cw` with the closed form (`decode_in_place`) and with
/// Berlekamp–Massey/Chien/Forney (`decode_general_in_place`) and
/// asserts the same outcome and the same bytes afterwards.
fn assert_closed_form_matches_general(rs: &Rs, cw: &[u8]) {
    let (mut fast, mut general) = (cw.to_vec(), cw.to_vec());
    let got = rs.decode_in_place(&mut fast, &mut rs.make_scratch());
    let want = rs.decode_general_in_place(&mut general, &mut rs.make_scratch());
    assert_eq!(got, want, "outcome for {cw:02x?}");
    assert_eq!(fast, general, "repaired bytes for {cw:02x?}");
}

#[test]
fn rs_closed_form_matches_general_decode_on_every_single_error() {
    let rs = Rs::chipkill();
    let mut rng = SplitMix64::new(0x51);
    for _ in 0..4 {
        let data: Vec<u8> = (0..16).map(|_| rng.next_u64() as u8).collect();
        let clean = rs.encode(&data);
        for pos in 0..18 {
            for mag in 1..=255u8 {
                let mut cw = clean.clone();
                cw[pos] ^= mag;
                assert_closed_form_matches_general(&rs, &cw);
                rs.decode_in_place(&mut cw, &mut rs.make_scratch());
                assert_eq!(cw, clean, "pos {pos} magnitude {mag:#04x}");
            }
        }
    }
}

#[test]
fn rs_closed_form_matches_general_decode_on_every_double_error() {
    let rs = Rs::chipkill();
    let mut rng = SplitMix64::new(0x52);
    let data: Vec<u8> = (0..16).map(|_| rng.next_u64() as u8).collect();
    let clean = rs.encode(&data);
    for p1 in 0..18 {
        for p2 in p1 + 1..18 {
            for _ in 0..64 {
                let mut cw = clean.clone();
                cw[p1] ^= 1 + rng.next_below(255) as u8;
                cw[p2] ^= 1 + rng.next_below(255) as u8;
                assert_closed_form_matches_general(&rs, &cw);
            }
        }
    }
}
