//! Property-based tests for the error-control codes.

use dve_ecc::code::{CheckOutcome, DetectionCode};
use dve_ecc::gf::{reference, Gf16, Gf256};
use dve_ecc::inject::{FaultInjector, FaultKind};
use dve_ecc::rs::Rs;
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
        prop_assert_eq!(Gf256::mul(a, b ^ c), Gf256::mul(a, b) ^ Gf256::mul(a, c));
    }

    #[test]
    fn gf256_division_inverts_multiplication(a in 0u8.., b in 1u8..) {
        prop_assert_eq!(Gf256::div(Gf256::mul(a, b), b), a);
    }

    #[test]
    fn gf16_field_axioms(a in 0u16.., b in 0u16.., c in 0u16..) {
        prop_assert_eq!(Gf16::mul(a, b), Gf16::mul(b, a));
        prop_assert_eq!(Gf16::mul(Gf16::mul(a, b), c), Gf16::mul(a, Gf16::mul(b, c)));
        prop_assert_eq!(Gf16::mul(a, b ^ c), Gf16::mul(a, b) ^ Gf16::mul(a, c));
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
        prop_assert_eq!(Gf16::alpha_pow(n), reference::gf16_pow(2, n));
        prop_assert_eq!(Gf16::inv(a), reference::gf16_inv(a));
    }

    // ---- Allocation-free hot paths vs the allocating API ---------------

    #[test]
    fn rs_encode_into_matches_encode(
        data in proptest::collection::vec(any::<u8>(), 16),
    ) {
        for rs in [Rs::chipkill(), Rs::dsd()] {
            let mut fast = vec![0u8; rs.codeword_len()];
            rs.encode_into(&data, &mut fast);
            prop_assert_eq!(&fast, &rs.encode(&data));
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
        let code = Rs16Detect::tsd(64);
        let mut fast = vec![0u8; code.codeword_len()];
        code.encode_into(&data, &mut fast);
        let cw = code.encode(&data);
        prop_assert_eq!(&fast, &cw);
        let mut bad = cw.clone();
        let sym = u16::from_be_bytes([bad[2 * pos], bad[2 * pos + 1]]) ^ err;
        bad[2 * pos..2 * pos + 2].copy_from_slice(&sym.to_be_bytes());
        // err == 0 keeps the word clean; the check must agree with
        // whether anything actually changed.
        prop_assert_eq!(code.check(&bad).is_good(), err == 0);
    }

    // ---- Fast paths vs the general algorithms -------------------------

    #[test]
    fn syndrome_solve_encoders_match_the_lfsr(
        seed in any::<u64>(),
        words in 1usize..40,
    ) {
        // RS(18,16) and the 3-check TSD code (at any payload) solve
        // their parity from the data syndromes; the textbook LFSR
        // division must give the same bytes.
        let mut rng = SplitMix64::new(seed);
        let mut bytes = |len: usize| -> Vec<u8> { (0..len).map(|_| rng.next_u64() as u8).collect() };
        for rs in [Rs::chipkill(), Rs::dsd()] {
            let data = bytes(rs.data_len());
            prop_assert_eq!(&rs.encode(&data)[data.len()..], &lfsr_parity8(&data, 2)[..]);
        }
        for tsd in [Rs16Detect::tsd(2 * words), Rs16Detect::tsd(64)] {
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
        errors in 3usize..=18,
    ) {
        // Three or more wrong symbols: DUE or a miscorrection, and the
        // closed form must pick the same one (same outcome, same
        // syndrome weight, same repaired bytes) as BM/Chien/Forney.
        let mut rng = SplitMix64::new(seed);
        let rs = Rs::chipkill();
        let data: Vec<u8> = (0..16).map(|_| rng.next_u64() as u8).collect();
        let mut cw = rs.encode(&data);
        for _ in 0..errors {
            let pos = rng.next_below(18) as usize;
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
        let outcome = rs.decode_in_place(&mut cw, &mut rs.make_scratch());
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
        let outcome = rs.decode_in_place(&mut cw, &mut rs.make_scratch());
        let detected = matches!(outcome, CheckOutcome::DetectedUncorrectable { .. });
        prop_assert!(detected);
        prop_assert_eq!(cw, before);
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
        let outcome = rs.decode_in_place(&mut cw, &mut rs.make_scratch());
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
        let outcome = dsd.decode_in_place(&mut cw, &mut dsd.make_scratch());
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

// ---- Sparse detect-only checks ------------------------------------------
//
// The campaign checks DSD and TSD error patterns through `check_sparse`,
// which sums each faulty symbol's syndrome terms instead of walking the
// whole word. Both properties compare it with the dense `check` of the
// word holding the same symbols; positions may repeat (their values add).

/// The DSD word and the TSD word carrying `errors` (TSD values whole,
/// DSD values reduced to a non-zero byte at a position below 18).
fn dense_words(errors: &[(usize, u16)]) -> (Vec<(usize, u8)>, [u8; 18], Vec<u8>) {
    let dsd: Vec<(usize, u8)> = errors
        .iter()
        .map(|&(p, v)| (p % 18, (v % 255 + 1) as u8))
        .collect();
    let mut dsd_word = [0u8; 18];
    for &(p, v) in &dsd {
        dsd_word[p] ^= v;
    }
    let mut tsd_word = vec![0u8; 70];
    for &(p, v) in errors {
        let [hi, lo] = v.to_be_bytes();
        tsd_word[2 * p] ^= hi;
        tsd_word[2 * p + 1] ^= lo;
    }
    (dsd, dsd_word, tsd_word)
}

/// The non-zero symbols of a codeword as `(position, value)` pairs, the
/// first one split over a repeated position.
fn escape_pairs<T: Copy + PartialEq + Default + std::ops::BitXor<Output = T>>(
    symbols: impl Iterator<Item = T>,
    split: T,
) -> Vec<(usize, T)> {
    let mut pairs: Vec<(usize, T)> = symbols
        .enumerate()
        .filter(|&(_, v)| v != T::default())
        .collect();
    pairs.push((pairs[0].0, split));
    pairs[0].1 = pairs[0].1 ^ split;
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sparse_check_matches_dense_check(
        errors in proptest::collection::vec((0usize..35, 1u16..), 1..=4),
        spread in 1usize..=35,
    ) {
        // A small `spread` folds the positions together, so repeated
        // positions (and cancelling values) come up often.
        let errors: Vec<(usize, u16)> = errors.iter().map(|&(p, v)| (p % spread, v)).collect();
        let (dsd_errors, dsd_word, tsd_word) = dense_words(&errors);
        let (dsd, tsd) = (Rs::dsd(), Rs16Detect::tsd(64));
        prop_assert_eq!(dsd.check_sparse(dsd_errors.iter().copied()), dsd.check(&dsd_word));
        prop_assert_eq!(tsd.check_sparse(errors.iter().copied()), tsd.check(&tsd_word));
    }

    #[test]
    fn sparse_check_passes_the_codewords_dense_check_passes(
        at in 0usize..32,
        value in 1u16..,
        split in any::<u16>(),
        extra in (0usize..35, 1u16..),
    ) {
        // A dataword with one non-zero symbol encodes to a minimum-weight
        // codeword (3 symbols under DSD, 4 under TSD): an error pattern
        // both checks must pass, the detection escape the campaign counts
        // as SDC. One more error on top must be judged alike again.
        let dsd = Rs::dsd();
        let mut data = [0u8; 16];
        data[at % 16] = (value % 255 + 1) as u8;
        let cw = dsd.encode(&data);
        let mut pairs = escape_pairs(cw.iter().copied(), split as u8);
        prop_assert_eq!(dsd.check(&cw), CheckOutcome::NoError);
        prop_assert_eq!(dsd.check_sparse(pairs.iter().copied()), CheckOutcome::NoError);
        let mut bad = cw.clone();
        let (p, v) = (extra.0 % 18, (extra.1 % 255 + 1) as u8);
        bad[p] ^= v;
        pairs.push((p, v));
        prop_assert_eq!(dsd.check_sparse(pairs.iter().copied()), dsd.check(&bad));

        let tsd = Rs16Detect::tsd(64);
        let mut data = [0u8; 64];
        data[2 * at..2 * at + 2].copy_from_slice(&value.to_be_bytes());
        let cw = tsd.encode(&data);
        let symbols = cw.chunks_exact(2).map(|s| u16::from_be_bytes([s[0], s[1]]));
        let mut pairs = escape_pairs(symbols, split);
        prop_assert_eq!(tsd.check(&cw), CheckOutcome::NoError);
        prop_assert_eq!(tsd.check_sparse(pairs.iter().copied()), CheckOutcome::NoError);
        let mut bad = cw.clone();
        let [hi, lo] = extra.1.to_be_bytes();
        bad[2 * extra.0] ^= hi;
        bad[2 * extra.0 + 1] ^= lo;
        pairs.push(extra);
        prop_assert_eq!(tsd.check_sparse(pairs.iter().copied()), tsd.check(&bad));
    }
}
