//! The scalar oracle and failure accounting: every answer the benchmark
//! receives is checked here against a sum computed with
//! [`UBig::wrapping_add`], and counted.

use bitnum::UBig;
use vlcsa_serve::Program;

/// What a correct answer to one request must carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    /// The wrapped sum of the request's operands.
    pub sum: UBig,
    /// The carry out of the request's final carry-resolve.
    pub cout: bool,
}

impl Expect {
    /// The answer to `ADD a b`.
    pub fn add(a: &UBig, b: &UBig) -> Self {
        let sum = a.wrapping_add(b);
        let (carried, cout) = a.overflowing_add(b);
        assert_eq!(carried, sum, "the two scalar sums agree");
        Self { sum, cout }
    }

    /// The answer to `SUM` over `operands`: the sum is the scalar
    /// oracle's running wrapped sum; the carry out is that of the single
    /// resolve of the program's carry-save pair, as the protocol defines.
    pub fn sum(program: &Program, operands: &[UBig]) -> Self {
        let sum = operands[1..]
            .iter()
            .fold(operands[0].clone(), |acc, op| acc.wrapping_add(op));
        let (x, y) = program.csa_pair_scalar(operands);
        let (resolved, cout) = x.overflowing_add(&y);
        assert_eq!(resolved, sum, "the carry-save pair resolves to the sum");
        Self { sum, cout }
    }
}

/// A successful answer as it came off the wire or out of the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Okay {
    /// The sum the system returned.
    pub sum: UBig,
    /// The carry out it returned.
    pub cout: bool,
    /// The modelled cycles it reported.
    pub cycles: u8,
}

/// Why an answer is not an [`Okay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The system answered `ERR`.
    Err(String),
    /// The answer could not be decoded.
    Garbled(String),
}

/// One answer, matched to its request by sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// The echoed sequence number.
    pub seq: u64,
    /// What came back.
    pub result: Result<Okay, Failure>,
}

/// The judgement on one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exact sum and carry, and a 1- or 2-cycle latency.
    Correct {
        /// The reported cycles.
        cycles: u8,
    },
    /// An `ERR` answer.
    Error,
    /// A wrong sum or carry, an impossible cycle count, or garbage.
    Wrong,
}

/// Judges `result` against `expect`.
pub fn check(expect: &Expect, result: &Result<Okay, Failure>) -> Verdict {
    match result {
        Ok(ok)
            if ok.sum == expect.sum && ok.cout == expect.cout && (1..=2).contains(&ok.cycles) =>
        {
            Verdict::Correct { cycles: ok.cycles }
        }
        Ok(_) | Err(Failure::Garbled(_)) => Verdict::Wrong,
        Err(Failure::Err(_)) => Verdict::Error,
    }
}

/// Failure accounting for a run: every request attempted ends as correct,
/// an error, wrong, or missing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent (or additions run).
    pub attempted: u64,
    /// Answers that passed [`check`].
    pub correct: u64,
    /// `ERR` answers.
    pub errors: u64,
    /// Wrong answers, including garbage and unknown sequence numbers.
    pub wrong: u64,
    /// Requests that never got an answer.
    pub missing: u64,
}

impl Tally {
    /// Counts one judged answer.
    pub fn record(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Correct { .. } => self.correct += 1,
            Verdict::Error => self.errors += 1,
            Verdict::Wrong => self.wrong += 1,
        }
    }

    /// Counts `n` checked units (additions, lanes) of which `bad` were wrong.
    pub fn record_many(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.correct += n - bad;
        self.wrong += bad;
    }

    /// Attempted requests that did not end correct.
    pub fn failed(&self) -> u64 {
        self.attempted - self.correct.min(self.attempted)
    }

    /// Correct answers over requests attempted.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.correct as f64 / self.attempted as f64
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.correct += other.correct;
        self.errors += other.errors;
        self.wrong += other.wrong;
        self.missing += other.missing;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (UBig, UBig) {
        (
            UBig::from_u128(u64::MAX as u128, 64),
            UBig::from_u128(5, 64),
        )
    }

    #[test]
    fn oracle_wraps_and_carries() {
        let (a, b) = pair();
        let e = Expect::add(&a, &b);
        assert_eq!(e.sum.to_u128(), Some(4));
        assert!(e.cout);
    }

    #[test]
    fn sum_oracle_matches_the_running_sum() {
        let ops: Vec<UBig> = (1..=8).map(|v| UBig::from_u128(v, 64)).collect();
        let e = Expect::sum(&Program::sum(8).unwrap(), &ops);
        assert_eq!(e.sum.to_u128(), Some(36));
        assert!(!e.cout);
    }

    #[test]
    fn corrupted_reply_and_err_are_counted_as_failures() {
        let (a, b) = pair();
        let expect = Expect::add(&a, &b);
        let good = Ok(Okay {
            sum: expect.sum.clone(),
            cout: true,
            cycles: 2,
        });
        let mut corrupted_sum = expect.sum.clone();
        corrupted_sum.set_bit(17, !corrupted_sum.bit(17));
        let corrupted = Ok(Okay {
            sum: corrupted_sum,
            cout: true,
            cycles: 1,
        });
        let wrong_carry = Ok(Okay {
            sum: expect.sum.clone(),
            cout: false,
            cycles: 1,
        });
        let bad_cycles = Ok(Okay {
            sum: expect.sum.clone(),
            cout: true,
            cycles: 3,
        });
        let err = Err(Failure::Err("ERR 7 busy".into()));
        let garbled = Err(Failure::Garbled("OK 7 zz".into()));

        let mut tally = Tally {
            attempted: 6,
            ..Tally::default()
        };
        for result in [&good, &corrupted, &wrong_carry, &bad_cycles, &err, &garbled] {
            tally.record(check(&expect, result));
        }
        assert_eq!(check(&expect, &good), Verdict::Correct { cycles: 2 });
        assert_eq!(tally.correct, 1);
        assert_eq!(tally.errors, 1);
        assert_eq!(tally.wrong, 4);
        assert_eq!(tally.failed(), 5);
        assert!((tally.ok_share() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn missing_answers_count_against_ok_share() {
        let mut tally = Tally {
            attempted: 4,
            ..Tally::default()
        };
        tally.record(Verdict::Correct { cycles: 1 });
        tally.missing = 3;
        assert_eq!(tally.failed(), 3);
        assert_eq!(tally.ok_share(), 0.25);
    }
}
