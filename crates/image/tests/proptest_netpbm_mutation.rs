//! Mutation probe for the Netpbm decoders: valid encodings of every
//! format (P1/P4, P2/P5, 16-bit P5, P3/P6) are damaged by truncation,
//! bit flips, splices and number blow-ups, then fed to every decoder —
//! the whole-buffer readers and the `PbmBands`/`PgmBands` band decoders.
//! Each decode must end in `Ok` or a typed [`ImageError`], never a
//! panic, and a band decoder must finish in at most one band per input
//! byte (no hang).

use proptest::prelude::*;

use ccl_image::io::stream::{PbmBands, PgmBands};
use ccl_image::io::{pbm, pgm, ppm};
use ccl_image::{BinaryImage, GrayImage, ImageError, RgbImage};

/// Replacement tokens for the number blow-up: zero, the edges of `u16`,
/// `u32` and `usize`, and values no integer type holds.
const NUMBERS: [&str; 10] = [
    "0",
    "1",
    "255",
    "256",
    "65536",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999",
    "-1",
];

/// Valid encodings of one random raster in all seven formats.
fn encodings(w: usize, h: usize, samples: &[u16]) -> Vec<Vec<u8>> {
    let n = w * h;
    let binary = BinaryImage::from_fn(w, h, |r, c| samples[r * w + c] & 1 == 1);
    let gray = GrayImage::from_raw(w, h, samples[..n].iter().map(|&s| s as u8).collect()).unwrap();
    let rgb = RgbImage::from_raw(w, h, samples.iter().map(|&s| (s >> 8) as u8).collect()).unwrap();
    vec![
        pbm::write_ascii(&binary),
        pbm::write_binary(&binary),
        pgm::write_ascii(&gray),
        pgm::write_binary(&gray),
        pgm::write_binary16(w, h, &samples[..n]),
        ppm::write_ascii(&rgb),
        ppm::write_binary(&rgb),
    ]
}

/// Byte ranges of the ASCII digit runs in `data`.
fn digit_runs(data: &[u8]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < data.len() {
        if data[i].is_ascii_digit() {
            let start = i;
            while i < data.len() && data[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    runs
}

/// Applies one mutation: `kind` picks truncation, bit flip, splice or
/// number blow-up; `a`, `b` and `c` place it.
fn mutate(data: &mut Vec<u8>, kind: u8, a: usize, b: usize, c: usize) {
    match kind % 4 {
        0 => data.truncate(a % (data.len() + 1)),
        1 => {
            if !data.is_empty() {
                let i = a % data.len();
                data[i] ^= 1 << (b % 8);
            }
        }
        2 => {
            // copy a slice of the buffer over another position,
            // replacing as many bytes as it inserts or a different count
            if !data.is_empty() {
                let from = a % data.len();
                let len = 1 + c % 16;
                let chunk: Vec<u8> = data[from..(from + len).min(data.len())].to_vec();
                let at = b % (data.len() + 1);
                let cut = (at + c % 3 * chunk.len() / 2).min(data.len());
                data.splice(at..cut, chunk);
            }
        }
        _ => {
            let runs = digit_runs(data);
            if !runs.is_empty() {
                let (start, end) = runs[a % runs.len()];
                data.splice(start..end, NUMBERS[b % NUMBERS.len()].bytes());
            }
        }
    }
}

/// Every error must be a typed `ImageError` that renders a message.
fn typed(err: ImageError) {
    assert!(!err.to_string().is_empty());
}

/// Feeds `data` to every decoder; each must return, not panic.
fn decode_all(data: &[u8], band_rows: usize) {
    match pbm::read(data) {
        Ok(img) => assert_eq!(img.as_slice().len(), img.width() * img.height()),
        Err(e) => typed(e),
    }
    match pgm::read(data) {
        Ok(img) => assert_eq!(img.as_slice().len(), img.width() * img.height()),
        Err(e) => typed(e),
    }
    match pgm::read_binary16(data) {
        Ok((w, h, samples)) => assert_eq!(samples.len(), w * h),
        Err(e) => typed(e),
    }
    match ppm::read(data) {
        Ok(img) => assert_eq!(img.as_slice().len(), img.width() * img.height() * 3),
        Err(e) => typed(e),
    }
    match PbmBands::new(data) {
        Ok(mut bands) => {
            let mut calls = 0;
            loop {
                calls += 1;
                assert!(calls <= data.len() + 1, "PbmBands did not finish");
                match bands.next_band(band_rows) {
                    Ok(Some(band)) => assert_eq!(band.width(), bands.width()),
                    Ok(None) => break,
                    Err(e) => {
                        typed(e);
                        break;
                    }
                }
            }
        }
        Err(e) => typed(e),
    }
    match PgmBands::new(data) {
        Ok(mut bands) => {
            let mut calls = 0;
            loop {
                calls += 1;
                assert!(calls <= data.len() + 1, "PgmBands did not finish");
                match bands.next_band(band_rows) {
                    Ok(Some(band)) => assert_eq!(band.width(), bands.width()),
                    Ok(None) => break,
                    Err(e) => {
                        typed(e);
                        break;
                    }
                }
            }
        }
        Err(e) => typed(e),
    }
}

/// Small raster: dimensions and three 16-bit samples per pixel (enough
/// for the RGB encoding; the other formats use the first `w * h`).
fn arb_raster() -> impl Strategy<Value = (usize, usize, Vec<u16>)> {
    (1usize..=9, 1usize..=9).prop_flat_map(|(w, h)| {
        proptest::collection::vec(proptest::num::u16::ANY, w * h * 3)
            .prop_map(move |samples| (w, h, samples))
    })
}

/// One to three stacked mutations.
fn arb_mutations() -> impl Strategy<Value = Vec<(u8, usize, usize, usize)>> {
    proptest::collection::vec((0u8..4, 0usize..4096, 0usize..4096, 0usize..4096), 1..=3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn mutated_netpbm_never_panics(
        (w, h, samples) in arb_raster(),
        mutations in arb_mutations(),
        band_rows in 1usize..=4,
    ) {
        for valid in encodings(w, h, &samples) {
            decode_all(&valid, band_rows);
            let mut data = valid;
            for &(kind, a, b, c) in &mutations {
                mutate(&mut data, kind, a, b, c);
            }
            decode_all(&data, band_rows);
        }
    }
}

#[test]
fn hostile_dimension_pairs_return() {
    // headers a number blow-up can produce: zero-width rows with a huge
    // height, and products that overflow `usize`
    for magic in ["P1", "P4", "P2", "P5", "P3", "P6"] {
        for (w, h) in [
            ("0", "18446744073709551615"),
            ("18446744073709551615", "0"),
            ("4294967296", "4294967296"),
            ("1", "18446744073709551615"),
        ] {
            let data = format!("{magic}\n{w} {h}\n255\n\x01\x02");
            decode_all(data.as_bytes(), 3);
        }
    }
}
