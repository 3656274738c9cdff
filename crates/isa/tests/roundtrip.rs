//! Property-style tests (deterministic, `SplitMix64`-driven): arbitrary
//! well-formed programs must round-trip through the binary format, and
//! corrupted binaries must never decode into a *different* valid program
//! silently (they either error or reproduce the original — never a third
//! thing with the same length).

use planaria_arch::Arrangement;
use planaria_isa::{Instr, Program};
use planaria_model::SplitMix64;

const CASES: usize = 128;

fn random_instr(rng: &mut SplitMix64) -> Instr {
    match rng.next_below(6) {
        0 => Instr::Configure {
            arrangement: Arrangement::new(
                rng.next_range(1, 16) as u32,
                rng.next_range(1, 16) as u32,
                rng.next_range(1, 16) as u32,
            ),
        },
        1 => Instr::LoadWeights {
            bytes: rng.next_u32(),
        },
        2 => Instr::StreamTiles {
            count: rng.next_u32(),
            cycles_per_tile: rng.next_u32(),
        },
        3 => Instr::VectorOp {
            cycles: rng.next_u32(),
        },
        4 => Instr::Checkpoint {
            bytes: rng.next_u32(),
        },
        _ => Instr::Sync,
    }
}

fn random_name(rng: &mut SplitMix64, max_len: u64) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-";
    let len = rng.next_below(max_len + 1) as usize;
    (0..len)
        .map(|_| ALPHABET[rng.next_below(ALPHABET.len() as u64) as usize] as char)
        .collect()
}

fn random_program(rng: &mut SplitMix64, max_body: u64) -> Program {
    let name = random_name(rng, 24);
    let subarrays = rng.next_range(1, 16) as u32;
    let mut instrs: Vec<Instr> = (0..rng.next_below(max_body))
        .map(|_| random_instr(rng))
        .collect();
    instrs.push(Instr::Halt);
    Program::new(name, subarrays, instrs)
}

#[test]
fn arbitrary_programs_roundtrip() {
    let mut rng = SplitMix64::new(0x1541_0ca1);
    for case in 0..CASES {
        let program = random_program(&mut rng, 64);
        let bin = program.assemble();
        assert_eq!(bin.len(), program.encoded_len(), "case {case}");
        let back = Program::disassemble(&bin).unwrap_or_else(|e| {
            panic!("case {case}: roundtrip decode failed: {e:?}");
        });
        assert_eq!(back, program, "case {case}");
    }
}

#[test]
fn single_byte_corruption_never_panics_or_overreads() {
    let mut rng = SplitMix64::new(0xc0_44u64);
    for _case in 0..CASES {
        let program = random_program(&mut rng, 16);
        let mut bin = program.assemble();
        let idx = rng.next_below(bin.len() as u64) as usize;
        let xor = rng.next_range(1, 255) as u8;
        bin[idx] ^= xor;
        // Either rejected, or decodes to *some* program — but decoding must
        // never panic and never read past the buffer.
        let _ = Program::disassemble(&bin);
    }
}

#[test]
fn truncation_is_always_detected() {
    let mut rng = SplitMix64::new(0x0071_234c_u64);
    for case in 0..CASES {
        let program = random_program(&mut rng, 16);
        let bin = program.assemble();
        let cut = rng.next_below(bin.len() as u64 - 1) as usize; // strictly shorter
        assert!(
            Program::disassemble(&bin[..cut]).is_err(),
            "case {case}: truncated binary decoded"
        );
    }
}
