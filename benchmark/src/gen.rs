//! Seeded input generation: the benchmark's own RNG and the SCSQL
//! texts of every workload. The program under test only ever sees what
//! this module (and the workload modules) generate from `--seed`.

/// SplitMix64 — the benchmark's own copy, so input generation does not
/// depend on the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// the sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The paper's 13 stream-buffer sizes (Figures 6 and 8).
pub const BUFFER_SWEEP: [u64; 13] = [
    100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000,
    1_000_000,
];

/// Figure 6: point-to-point, one generator, `count` at the receiver.
pub fn p2p_query(bytes: u64, arrays: u64) -> String {
    format!(
        "select extract(b) from sp a, sp b \
         where b=sp(streamof(count(extract(a))), 'bg', 0) \
         and a=sp(gen_array({bytes},{arrays}),'bg',1);"
    )
}

/// Figure 8: two generators merged at node 0; `second` is the second
/// generator's node (2 = the paper's sequential selection, 4 = balanced).
pub fn merge_query(bytes: u64, arrays: u64, second: u32) -> String {
    format!(
        "select extract(c) from sp a, sp b, sp c \
         where c=sp(count(merge({{a,b}})), 'bg',0) \
         and a=sp(gen_array({bytes},{arrays}),'bg',1) \
         and b=sp(gen_array({bytes},{arrays}),'bg',{second});"
    )
}

/// Figure 15: the paper's inbound Queries 1–6 with `n` back-end
/// generators written into the text.
///
/// # Panics
///
/// Panics on a query number outside 1–6.
pub fn inbound_query(number: u8, bytes: u64, arrays: u64, n: u32) -> String {
    let gen = format!("(select gen_array({bytes},{arrays}) from integer i where i in iota(1,n))");
    let single = |alloc: &str| {
        format!(
            "select extract(c) from bag of sp a, sp b, sp c, integer n \
             where c=sp(extract(b), 'bg') \
             and b=sp(count(merge(a)), 'bg') \
             and a=spv({gen}, 'be', {alloc}) \
             and n={n};"
        )
    };
    let parallel = |bg: &str, be: &str| {
        format!(
            "select extract(c) from bag of sp a, bag of sp b, sp c, integer n \
             where c=sp(streamof(sum(merge(b))), 'bg') \
             and b=spv((select streamof(count(extract(p))) from sp p where p in a), 'bg', {bg}) \
             and a=spv({gen}, 'be', {be}) \
             and n={n};"
        )
    };
    match number {
        1 => single("1"),
        2 => single("urr('be')"),
        3 => parallel("inPset(1)", "1"),
        4 => parallel("inPset(1)", "urr('be')"),
        5 => parallel("psetrr()", "1"),
        6 => parallel("psetrr()", "urr('be')"),
        other => panic!("the paper defines Queries 1-6, not {other}"),
    }
}

/// `element_pipeline` leg 1: take → sum over `n` integers.
pub fn take_sum_query(n: u64) -> String {
    format!(
        "select extract(c) from sp a, sp b1, sp c \
         where c=sp(streamof(sum(merge({{b1}}))), 'bg', 0) \
         and b1=sp(streamof(sum(take(extract(a), {n}))), 'bg', 2) \
         and a=sp(streamof(iota(1,{n})),'bg',1);"
    )
}

/// The filter threshold shared by the filter legs: `3x > half`.
pub fn filter_half(n: u64) -> u64 {
    3 * n / 2
}

/// `element_pipeline` leg 2: arith×3 → filter → arith → cmp → count.
pub fn filter_heavy_query(n: u64) -> String {
    format!(
        "select extract(c) from sp a, sp b1, sp c \
         where c=sp(streamof(sum(merge({{b1}}))), 'bg', 0) \
         and b1=sp(streamof(count(cmp(arith(filter(arith(arith(arith(extract(a), \
         '*', 3), '+', 1), '-', 1), '>', {half}), '*', 2), '<', {cap}))), 'bg', 2) \
         and a=sp(streamof(iota(1,{n})),'bg',1);",
        half = filter_half(n),
        cap = 7 * n,
    )
}

/// `element_pipeline` leg 3: a two-SP relay, arith → filter upstream,
/// `sum` downstream.
pub fn relay_query(n: u64) -> String {
    format!(
        "select extract(c) from sp a, sp b1, sp c \
         where c=sp(streamof(sum(extract(b1))), 'bg', 0) \
         and b1=sp(filter(arith(extract(a), '*', 3), '>', {half}), 'bg', 2) \
         and a=sp(streamof(iota(1,{n})),'bg',1);",
        half = filter_half(n),
    )
}

/// Window size of the declined leg.
pub const WINDOW: u64 = 4;

/// `element_pipeline` leg 4: a tumbling-window sum the columnar
/// admission walk declines (no whole-column kernel for `winagg`), so
/// the chain runs on the executor's per-element fallback path.
pub fn winagg_declined_query(n: u64) -> String {
    format!(
        "select extract(c) from sp a, sp b1, sp c \
         where c=sp(streamof(sum(merge({{b1}}))), 'bg', 0) \
         and b1=sp(streamof(sum(winagg(extract(a), {WINDOW}, {WINDOW}, 'sum'))), 'bg', 2) \
         and a=sp(streamof(iota(1,{n})),'bg',1);"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_shuffle_permutes() {
        let mut a = Rng::new(11);
        let mut b = Rng::new(11);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut deck: Vec<u32> = (0..100).collect();
        a.shuffle(&mut deck);
        let mut sorted = deck.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(deck, sorted);
    }

    #[test]
    fn every_generated_text_parses_as_one_statement() {
        let mut texts = vec![
            p2p_query(3_000_000, 100),
            merge_query(3_000_000, 100, 2),
            merge_query(3_000_000, 100, 4),
            take_sum_query(1000),
            filter_heavy_query(1000),
            relay_query(1000),
            winagg_declined_query(1000),
        ];
        for q in 1..=6 {
            for n in 1..=4 {
                texts.push(inbound_query(q, 300_000, 10, n));
            }
        }
        for t in texts {
            let stmts = scsq_ql::parse_program(&t).unwrap_or_else(|e| panic!("{t}: {e}"));
            assert_eq!(stmts.len(), 1, "{t}");
        }
    }
}
