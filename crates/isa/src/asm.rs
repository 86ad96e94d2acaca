//! A two-pass assembler for the DMDP ISA.
//!
//! The syntax is a practical MIPS-like subset:
//!
//! ```text
//!         .data
//! table:  .word 1, 2, 3
//! buf:    .space 64
//!         .text
//! start:  lui  $8, %hi(table)
//!         ori  $8, $8, %lo(table)
//! loop:   lw   $9, 0($8)
//!         addi $8, $8, 4
//!         bne  $9, $0, loop
//!         halt
//! ```
//!
//! * Comments run from `#` or `;` to end of line.
//! * Labels are `name:`; text labels denote instruction indices, data
//!   labels denote byte addresses.
//! * `%hi(expr)` / `%lo(expr)` split a 32-bit value for `lui`/`ori`.
//! * Immediate expressions are `label`, integers (decimal or `0x` hex),
//!   or `label+offset` / `label-offset`.
//! * Registers are written `$0`–`$31` or by the aliases `$zero`, `$sp`,
//!   `$ra`.
//!
//! The top-level entry point is [`assemble`]; use [`assemble_named`] to
//! give the program a name.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::insn::Insn;
use crate::program::{Program, DATA_BASE};
use crate::reg::Reg;
use crate::Pc;

/// An assembly error, carrying the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    line: usize,
    message: String,
}

impl AsmError {
    fn new(line: usize, message: impl Into<String>) -> AsmError {
        AsmError { line, message: message.into() }
    }

    /// 1-based line number of the offending source line.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

/// Assembles `source` into a [`Program`] named `"asm"`.
///
/// # Errors
///
/// Returns an [`AsmError`] describing the first syntax error, unknown
/// mnemonic, undefined label, or out-of-range operand.
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    assemble_named("asm", source)
}

/// Assembles `source` into a [`Program`] with the given name.
///
/// # Errors
///
/// See [`assemble`].
pub fn assemble_named(name: &str, source: &str) -> Result<Program, AsmError> {
    Assembler::default().run(name, source)
}

#[derive(Copy, Clone, PartialEq, Eq)]
enum Segment {
    Text,
    Data,
}

#[derive(Default)]
struct Assembler {
    labels: HashMap<String, u32>,
}

/// A parsed, label-free line: mnemonic + raw operand string, plus its
/// source line for diagnostics.
struct Stmt<'a> {
    line: usize,
    mnemonic: &'a str,
    operands: &'a str,
}

impl Assembler {
    fn run(mut self, name: &str, source: &str) -> Result<Program, AsmError> {
        let stmts = self.first_pass(source)?;
        let mut text = Vec::new();
        let mut data = Vec::new();
        let mut segment = Segment::Text;
        for stmt in &stmts {
            if stmt.mnemonic.starts_with('.') {
                self.directive(stmt, &mut segment, &mut data, /*layout_only=*/ false)?;
            } else if segment == Segment::Text {
                text.push(self.encode(stmt)?);
            } else {
                return Err(AsmError::new(stmt.line, "instruction in .data segment"));
            }
        }
        let entry = self.labels.get("start").copied().unwrap_or(0);
        if text.is_empty() {
            return Err(AsmError::new(0, "program has no instructions"));
        }
        Ok(Program::new(name, text, DATA_BASE, data, entry as Pc))
    }

    /// Pass 1: strip comments, record labels, compute data layout.
    fn first_pass<'a>(&mut self, source: &'a str) -> Result<Vec<Stmt<'a>>, AsmError> {
        let mut stmts = Vec::new();
        let mut segment = Segment::Text;
        let mut text_len: u32 = 0;
        let mut data = Vec::new();
        for (idx, raw) in source.lines().enumerate() {
            let line_no = idx + 1;
            let mut line = raw;
            if let Some(p) = line.find(['#', ';']) {
                line = &line[..p];
            }
            let mut rest = line.trim();
            // Peel off any number of labels.
            while let Some(colon) = rest.find(':') {
                let (label, after) = rest.split_at(colon);
                let label = label.trim();
                if !is_ident(label) {
                    break;
                }
                let value = match segment {
                    Segment::Text => text_len,
                    Segment::Data => DATA_BASE + data.len() as u32,
                };
                if self.labels.insert(label.to_string(), value).is_some() {
                    return Err(AsmError::new(line_no, format!("duplicate label `{label}`")));
                }
                rest = after[1..].trim();
            }
            if rest.is_empty() {
                continue;
            }
            let (mnemonic, operands) = match rest.find(char::is_whitespace) {
                Some(p) => (&rest[..p], rest[p..].trim()),
                None => (rest, ""),
            };
            let stmt = Stmt { line: line_no, mnemonic, operands };
            if mnemonic.starts_with('.') {
                // Re-simulate layout so data labels resolve; labels recorded
                // above already point at the pre-directive offset.
                self.directive(&stmt, &mut segment, &mut data, /*layout_only=*/ true)?;
            } else {
                if segment == Segment::Data {
                    return Err(AsmError::new(line_no, "instruction in .data segment"));
                }
                text_len += 1;
            }
            stmts.push(stmt);
        }
        Ok(stmts)
    }

    fn directive(
        &mut self,
        stmt: &Stmt<'_>,
        segment: &mut Segment,
        data: &mut Vec<u8>,
        layout_only: bool,
    ) -> Result<(), AsmError> {
        let line = stmt.line;
        match stmt.mnemonic {
            ".text" => *segment = Segment::Text,
            ".data" => *segment = Segment::Data,
            ".word" => {
                align(data, 4);
                for field in split_operands(stmt.operands) {
                    let v = if layout_only { 0 } else { self.expr(line, field)? };
                    data.extend_from_slice(&v.to_le_bytes());
                }
            }
            ".half" => {
                align(data, 2);
                for field in split_operands(stmt.operands) {
                    let v = if layout_only { 0 } else { self.expr(line, field)? };
                    data.extend_from_slice(&(v as u16).to_le_bytes());
                }
            }
            ".byte" => {
                for field in split_operands(stmt.operands) {
                    let v = if layout_only { 0 } else { self.expr(line, field)? };
                    data.push(v as u8);
                }
            }
            ".space" => {
                let n = parse_int(stmt.operands)
                    .ok_or_else(|| AsmError::new(line, "bad .space size"))?;
                data.resize(data.len() + n as usize, 0);
            }
            ".align" => {
                let n = parse_int(stmt.operands)
                    .ok_or_else(|| AsmError::new(line, "bad .align value"))?;
                if n == 0 || !(n as u32).is_power_of_two() {
                    return Err(AsmError::new(line, ".align requires a power of two"));
                }
                align(data, n as usize);
            }
            other => return Err(AsmError::new(line, format!("unknown directive `{other}`"))),
        }
        Ok(())
    }

    /// Pass 2: encode one instruction.
    fn encode(&self, stmt: &Stmt<'_>) -> Result<Insn, AsmError> {
        let line = stmt.line;
        let ops: Vec<&str> = split_operands(stmt.operands);
        let argc = ops.len();
        let err = |m: &str| AsmError::new(line, m.to_string());
        let need = |n: usize| -> Result<(), AsmError> {
            if argc == n {
                Ok(())
            } else {
                Err(AsmError::new(
                    line,
                    format!("`{}` expects {n} operands, found {argc}", stmt.mnemonic),
                ))
            }
        };
        let reg = |s: &str| parse_reg(s).ok_or_else(|| AsmError::new(line, format!("bad register `{s}`")));
        let imm = |s: &str| self.expr(line, s).map(|v| v as i32);

        macro_rules! rrr {
            ($ctor:path) => {{
                need(3)?;
                Ok($ctor(reg(ops[0])?, reg(ops[1])?, reg(ops[2])?))
            }};
        }
        macro_rules! rri {
            ($ctor:path) => {{
                need(3)?;
                Ok($ctor(reg(ops[0])?, reg(ops[1])?, imm(ops[2])?))
            }};
        }
        macro_rules! mem {
            ($ctor:path) => {{
                need(2)?;
                let (off, base) = parse_mem_operand(ops[1])
                    .ok_or_else(|| AsmError::new(line, format!("bad memory operand `{}`", ops[1])))?;
                let off = self.expr(line, off)? as i32;
                let base = reg(base)?;
                Ok($ctor(reg(ops[0])?, base, off))
            }};
        }
        macro_rules! br2 {
            ($ctor:path) => {{
                need(3)?;
                Ok($ctor(reg(ops[0])?, reg(ops[1])?, self.expr(line, ops[2])? as Pc))
            }};
        }
        macro_rules! br1 {
            ($ctor:path) => {{
                need(2)?;
                Ok($ctor(reg(ops[0])?, self.expr(line, ops[1])? as Pc))
            }};
        }

        match stmt.mnemonic {
            "add" => rrr!(Insn::add),
            "sub" => rrr!(Insn::sub),
            "and" => rrr!(Insn::and),
            "or" => rrr!(Insn::or),
            "xor" => rrr!(Insn::xor),
            "nor" => rrr!(Insn::nor),
            "slt" => rrr!(Insn::slt),
            "sltu" => rrr!(Insn::sltu),
            "sllv" => rrr!(Insn::sllv),
            "srlv" => rrr!(Insn::srlv),
            "srav" => rrr!(Insn::srav),
            "mul" => rrr!(Insn::mul),
            "div" => rrr!(Insn::div),
            "rem" => rrr!(Insn::rem),
            "addi" => rri!(Insn::addi),
            "andi" => rri!(Insn::andi),
            "ori" => rri!(Insn::ori),
            "xori" => rri!(Insn::xori),
            "slti" => rri!(Insn::slti),
            "sltiu" => rri!(Insn::sltiu),
            "sll" => rri!(Insn::sll),
            "srl" => rri!(Insn::srl),
            "sra" => rri!(Insn::sra),
            "muli" => rri!(Insn::muli),
            "lui" => {
                need(2)?;
                Ok(Insn::lui(reg(ops[0])?, imm(ops[1])?))
            }
            "li" => {
                need(2)?;
                let v = imm(ops[1])?;
                if (-32768..=32767).contains(&v) {
                    Ok(Insn::li(reg(ops[0])?, v))
                } else {
                    Err(err("`li` immediate out of 16-bit range; use lui/ori"))
                }
            }
            "move" | "mv" => {
                need(2)?;
                Ok(Insn::mv(reg(ops[0])?, reg(ops[1])?))
            }
            "lw" => mem!(Insn::lw),
            "lh" => mem!(Insn::lh),
            "lhu" => mem!(Insn::lhu),
            "lb" => mem!(Insn::lb),
            "lbu" => mem!(Insn::lbu),
            "sw" => mem!(Insn::sw),
            "sh" => mem!(Insn::sh),
            "sb" => mem!(Insn::sb),
            "beq" => br2!(Insn::beq),
            "bne" => br2!(Insn::bne),
            "blez" => br1!(Insn::blez),
            "bgtz" => br1!(Insn::bgtz),
            "bltz" => br1!(Insn::bltz),
            "bgez" => br1!(Insn::bgez),
            "j" => {
                need(1)?;
                Ok(Insn::j(self.expr(line, ops[0])? as Pc))
            }
            "jal" => {
                need(1)?;
                Ok(Insn::jal(self.expr(line, ops[0])? as Pc))
            }
            "jr" => {
                need(1)?;
                Ok(Insn::jr(reg(ops[0])?))
            }
            "jalr" => {
                need(2)?;
                Ok(Insn::jalr(reg(ops[0])?, reg(ops[1])?))
            }
            "nop" => {
                need(0)?;
                Ok(Insn::nop())
            }
            "halt" => {
                need(0)?;
                Ok(Insn::halt())
            }
            other => Err(AsmError::new(line, format!("unknown mnemonic `{other}`"))),
        }
    }

    /// Evaluates `label`, `int`, `label+int`, `label-int`, `%hi(e)`,
    /// `%lo(e)`.
    fn expr(&self, line: usize, s: &str) -> Result<u32, AsmError> {
        let s = s.trim();
        if let Some(inner) = s.strip_prefix("%hi(").and_then(|r| r.strip_suffix(')')) {
            return Ok(self.expr(line, inner)? >> 16);
        }
        if let Some(inner) = s.strip_prefix("%lo(").and_then(|r| r.strip_suffix(')')) {
            return Ok(self.expr(line, inner)? & 0xFFFF);
        }
        if let Some(v) = parse_int(s) {
            return Ok(v as u32);
        }
        // label, label+off, label-off
        let (base, offset) = match s[1..].find(['+', '-']) {
            Some(p) => {
                let p = p + 1;
                let off = parse_int(&s[p..])
                    .ok_or_else(|| AsmError::new(line, format!("bad offset in `{s}`")))?;
                (&s[..p], off)
            }
            None => (s, 0),
        };
        let base = base.trim();
        match self.labels.get(base) {
            Some(v) => Ok(v.wrapping_add(offset as u32)),
            None => Err(AsmError::new(line, format!("undefined label `{base}`"))),
        }
    }
}

fn align(data: &mut Vec<u8>, to: usize) {
    while !(DATA_BASE as usize + data.len()).is_multiple_of(to) {
        data.push(0);
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn split_operands(s: &str) -> Vec<&str> {
    if s.trim().is_empty() {
        return Vec::new();
    }
    s.split(',').map(str::trim).collect()
}

fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

fn parse_reg(s: &str) -> Option<Reg> {
    let body = s.trim().strip_prefix('$')?;
    match body {
        "zero" => Some(Reg::ZERO),
        "sp" => Some(Reg::SP),
        "ra" => Some(Reg::RA),
        _ => {
            let n: u8 = body.parse().ok()?;
            ((n as usize) < Reg::NUM_ARCH).then(|| Reg::new(n))
        }
    }
}

/// Splits `off(base)` into (`off`, `base`). `off` may be any expression.
fn parse_mem_operand(s: &str) -> Option<(&str, &str)> {
    let open = s.find('(')?;
    let close = s.rfind(')')?;
    if close < open {
        return None;
    }
    let off = s[..open].trim();
    let base = s[open + 1..close].trim();
    Some((if off.is_empty() { "0" } else { off }, base))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Emulator;

    #[test]
    fn assembles_basic_program() {
        let p = assemble(
            r#"
            # a comment
            li   $1, 3      ; another comment
            li   $2, 4
            add  $3, $1, $2
            halt
        "#,
        )
        .unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.fetch(2), Some(Insn::add(Reg::new(3), Reg::new(1), Reg::new(2))));
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let p = assemble(
            r#"
        top:    addi $1, $1, 1
                beq  $1, $2, done
                j    top
        done:   halt
        "#,
        )
        .unwrap();
        assert_eq!(p.fetch(1), Some(Insn::beq(Reg::new(1), Reg::new(2), 3)));
        assert_eq!(p.fetch(2), Some(Insn::j(0)));
    }

    #[test]
    fn data_segment_and_hi_lo() {
        let p = assemble(
            r#"
                .data
        a:      .word 10, 20
        b:      .byte 1, 2
                .align 4
        c:      .word 0xDEADBEEF
                .text
                lui $8, %hi(c)
                ori $8, $8, %lo(c)
                lw  $9, 0($8)
                halt
        "#,
        )
        .unwrap();
        let m = p.initial_memory();
        assert_eq!(m.read_word(DATA_BASE), 10);
        assert_eq!(m.read_word(DATA_BASE + 4), 20);
        assert_eq!(m.read_byte(DATA_BASE + 8), 1);
        assert_eq!(m.read_word(DATA_BASE + 12), 0xDEAD_BEEF);
        // And the program actually loads it.
        let mut emu = Emulator::new(&p);
        emu.run(100).unwrap();
        assert_eq!(emu.reg(Reg::new(9)), 0xDEAD_BEEF);
    }

    #[test]
    fn mem_operand_forms() {
        let p = assemble(
            r#"
            lw $9, 4($3)
            sw $7, ($8)
            halt
        "#,
        )
        .unwrap();
        assert_eq!(p.fetch(0), Some(Insn::lw(Reg::new(9), Reg::new(3), 4)));
        assert_eq!(p.fetch(1), Some(Insn::sw(Reg::new(7), Reg::new(8), 0)));
    }

    #[test]
    fn label_plus_offset_in_mem_operand() {
        let p = assemble(
            r#"
                .data
        arr:    .word 1, 2, 3
                .text
                lw $9, arr+8($0)
                halt
        "#,
        )
        .unwrap();
        assert_eq!(p.fetch(0), Some(Insn::lw(Reg::new(9), Reg::ZERO, (DATA_BASE + 8) as i32)));
    }

    #[test]
    fn register_aliases() {
        let p = assemble("move $sp, $ra\nhalt").unwrap();
        assert_eq!(p.fetch(0), Some(Insn::mv(Reg::SP, Reg::RA)));
    }

    #[test]
    fn start_label_sets_entry() {
        let p = assemble(
            r#"
                nop
        start:  halt
        "#,
        )
        .unwrap();
        assert_eq!(p.entry(), 1);
    }

    #[test]
    fn error_reports_line() {
        let e = assemble("nop\nbogus $1, $2\nhalt").unwrap_err();
        assert_eq!(e.line(), 2);
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn undefined_label_is_an_error() {
        let e = assemble("j nowhere\nhalt").unwrap_err();
        assert!(e.to_string().contains("nowhere"));
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let e = assemble("x: nop\nx: halt").unwrap_err();
        assert!(e.to_string().contains("duplicate"));
    }

    #[test]
    fn operand_count_mismatch() {
        let e = assemble("add $1, $2\nhalt").unwrap_err();
        assert!(e.to_string().contains("expects 3"));
    }

    #[test]
    fn empty_program_is_an_error() {
        assert!(assemble("# nothing\n").is_err());
    }

    #[test]
    fn instructions_in_data_segment_rejected() {
        let e = assemble(".data\nnop\n").unwrap_err();
        assert!(e.to_string().contains(".data"));
    }

    #[test]
    fn hex_and_negative_immediates() {
        let p = assemble("addi $1, $0, -4\nori $2, $0, 0xFF\nhalt").unwrap();
        assert_eq!(p.fetch(0), Some(Insn::addi(Reg::new(1), Reg::ZERO, -4)));
        assert_eq!(p.fetch(1), Some(Insn::ori(Reg::new(2), Reg::ZERO, 0xFF)));
    }
}
