//! The correctness gate: an in-process reference run of the same
//! inputs through the single-threaded `AccessControlEngine` (the
//! semantics the sharded, durable, served engine is proven equal to),
//! against which every checked answer is compared.

use ltam_bench::{contact_multiset, violation_multiset};
use ltam_core::decision::Decision;
use ltam_engine::batch::Event;
use ltam_engine::engine::AccessControlEngine;
use ltam_engine::Violation;
use ltam_serve::{HistoryQuery, Response};
use ltam_sim::TraceWorld;
use ltam_situate::SituationOp;

/// The reference engine.
pub struct Reference {
    engine: AccessControlEngine,
}

impl Reference {
    /// A reference over `world`'s authorizations under `situation`.
    pub fn new(world: &TraceWorld, situation: &[SituationOp]) -> Reference {
        let mut engine = world.build_engine();
        for op in situation {
            engine.apply_situation(op);
        }
        Reference { engine }
    }

    /// Apply one event; for an access request, whether it was granted.
    pub fn apply(&mut self, event: &Event) -> Option<bool> {
        match *event {
            Event::Request {
                time,
                subject,
                location,
            } => Some(matches!(
                self.engine.request_enter(time, subject, location),
                Decision::Granted { .. } | Decision::GrantedOverride { .. }
            )),
            _ => {
                ltam_engine::batch::apply_to_engine(&mut self.engine, event);
                None
            }
        }
    }

    /// Every violation so far, in canonical multiset order.
    pub fn violations(&self) -> Vec<Violation> {
        violation_multiset(self.engine.violations().to_vec())
    }

    /// Does `served` answer `query` exactly as the reference does?
    /// Row order is compared canonically where the server's order
    /// depends on its shard layout.
    pub fn answers(&self, query: &HistoryQuery, served: &Response) -> bool {
        let movements = self.engine.movements();
        match (*query, served) {
            (HistoryQuery::Whereabouts { subject, at }, Response::Whereabouts { location }) => {
                *location == movements.whereabouts(subject, at)
            }
            (
                HistoryQuery::Contacts { subject, window },
                Response::Contacts {
                    contacts,
                    quarantined,
                },
            ) => {
                quarantined.is_empty()
                    && contact_multiset(contacts.clone())
                        == contact_multiset(movements.contacts(subject, window))
            }
            (HistoryQuery::ViolationsIn { window }, Response::Violations { violations }) => {
                let expected = self
                    .engine
                    .violations()
                    .iter()
                    .filter(|v| window.contains(v.time()))
                    .copied()
                    .collect();
                violation_multiset(violations.clone()) == violation_multiset(expected)
            }
            (HistoryQuery::PresentDuring { location, window }, Response::Present { rows }) => {
                let mut got = rows.clone();
                let mut expected = movements.present_during(location, window);
                got.sort_unstable_by_key(|&(s, i)| (s, i.start(), i.end()));
                expected.sort_unstable_by_key(|&(s, i)| (s, i.start(), i.end()));
                got == expected
            }
            _ => false,
        }
    }
}
