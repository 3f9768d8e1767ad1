//! The one effect interpreter loop shared by every driver of the machines.
//!
//! A [`Substrate`] hosts a protocol machine and the world it acts on: the
//! kernel-backed substrate in [`crate::manager`] performs effects against
//! journals, locks, volumes and the transport; the model checker's abstract
//! substrate performs them against sets and maps and checks its invariants
//! as it goes. [`drive`] is the only code that steps a machine and feeds the
//! substrate's answers back, so what is model-checked is what runs.

use std::collections::VecDeque;

use super::{Effect, Input};

/// A protocol machine together with the world its effects act on.
pub trait Substrate {
    /// Why the substrate refuses to go on (the model checker's invariant
    /// violations). A substrate that reports failures to the machine as
    /// `ok: false` answers instead uses [`std::convert::Infallible`].
    type Error;

    /// Steps the hosted machine.
    fn step(&mut self, input: Input) -> Vec<Effect>;

    /// Performs one effect and returns the observation it asks for, if any.
    /// This is where a substrate's single exhaustive `match` on [`Effect`]
    /// lives.
    fn interpret(&mut self, effect: Effect) -> Result<Option<Input>, Self::Error>;

    /// Performs one prepare wave — two or more `SendPrepare`s (or
    /// `SendDelegate`s) the machine emitted together — and returns the
    /// answers in wave order. What a wave costs is the substrate's business;
    /// by default, each prepare in turn.
    fn prepare_wave(&mut self, wave: Vec<Effect>) -> Result<Vec<Input>, Self::Error> {
        let mut votes = Vec::with_capacity(wave.len());
        for prepare in wave {
            votes.extend(self.interpret(prepare)?);
        }
        Ok(votes)
    }
}

/// Feeds `input` to the substrate's machine and interprets effects until the
/// machine has nothing more to ask.
///
/// Answers are fed back in the order their effects were emitted, each after
/// the rest of its step's effects have been performed. No step emits an
/// answered effect ahead of another effect except as a wave (of prepares or
/// delegations) or as a delegate's inquiries to its peers, whose answers the
/// machine takes in any order; otherwise this is also the order in which
/// stepping each answer at once would visit them.
pub fn drive<S: Substrate>(substrate: &mut S, input: Input) -> Result<(), S::Error> {
    let is_prepare =
        |e: &Effect| matches!(e, Effect::SendPrepare { .. } | Effect::SendDelegate { .. });
    let mut inputs = VecDeque::from([input]);
    while let Some(input) = inputs.pop_front() {
        let mut effects = substrate.step(input).into_iter().peekable();
        while let Some(effect) = effects.next() {
            if is_prepare(&effect) && effects.peek().is_some_and(is_prepare) {
                let mut wave = vec![effect];
                wave.extend(std::iter::from_fn(|| effects.next_if(is_prepare)));
                inputs.extend(substrate.prepare_wave(wave)?);
            } else {
                inputs.extend(substrate.interpret(effect)?);
            }
        }
    }
    Ok(())
}
