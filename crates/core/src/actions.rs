//! Outputs of the sans-IO protocol state machines.
//!
//! Every algorithm method on [`crate::node::NeState`] and
//! [`crate::mh::MhState`] appends [`Action`]s to a caller-provided buffer
//! instead of performing IO. The engine translates them onto the simulator;
//! unit tests assert on them directly. Reusing one buffer across calls keeps
//! the hot path allocation-free.

use crate::events::ProtoEvent;
use crate::ids::Endpoint;
use crate::msg::Msg;

/// One protocol output.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Transmit `msg` to `to` over the network.
    Send {
        /// Destination endpoint.
        to: Endpoint,
        /// The message.
        msg: Msg,
    },
    /// Append a record to the measurement journal.
    Record(ProtoEvent),
}

impl Action {
    /// Convenience constructor for a send to a network entity.
    pub(crate) fn to_ne(node: crate::ids::NodeId, msg: Msg) -> Self {
        Action::Send {
            to: Endpoint::Ne(node),
            msg,
        }
    }

    /// Convenience constructor for a send to a mobile host.
    pub(crate) fn to_mh(guid: crate::ids::Guid, msg: Msg) -> Self {
        Action::Send {
            to: Endpoint::Mh(guid),
            msg,
        }
    }
}

/// Shorthand for the output buffer type used across the protocol.
pub(crate) type Outbox = Vec<Action>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{GroupId, Guid, NodeId};

    #[test]
    fn constructors_address_correctly() {
        let a = Action::to_ne(NodeId(1), Msg::Heartbeat { group: GroupId(0) });
        let b = Action::to_mh(Guid(2), Msg::Heartbeat { group: GroupId(0) });
        assert!(matches!(
            a,
            Action::Send {
                to: Endpoint::Ne(NodeId(1)),
                ..
            }
        ));
        assert!(matches!(
            b,
            Action::Send {
                to: Endpoint::Mh(Guid(2)),
                ..
            }
        ));
    }
}
