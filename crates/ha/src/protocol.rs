//! The heartbeat wire protocol between Host Objects and Magistrates.

use legion_core::loid::Loid;
use legion_core::symbol::{self, Sym};
use legion_core::value::LegionValue;
use legion_net::message::Message;

/// Host → Magistrate liveness report. Args: `[Loid(host), Uint(running)]`
/// where `running` is the host's current active-object count (a cheap
/// piggybacked load signal). Fire-and-forget: no reply is sent, so a
/// dead Magistrate cannot wedge its hosts.
pub const HEARTBEAT: Sym = symbol::HEARTBEAT;

/// The `Heartbeat` arguments, for `Ctx::args`.
pub fn heartbeat_args(host: Loid, running: usize) -> [LegionValue; 2] {
    [LegionValue::Loid(host), LegionValue::Uint(running as u64)]
}

/// Parse a `Heartbeat` call's arguments.
pub fn parse_heartbeat(msg: &Message) -> Option<(Loid, u64)> {
    match msg.args() {
        [LegionValue::Loid(host), LegionValue::Uint(running)] => Some((*host, *running)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::env::InvocationEnv;
    use legion_net::message::CallId;

    #[test]
    fn heartbeat_args_round_trip() {
        let host = Loid::instance(3, 4);
        let msg = Message::call(
            CallId(1),
            host,
            HEARTBEAT,
            heartbeat_args(host, 7).into(),
            InvocationEnv::solo(host),
        );
        assert_eq!(parse_heartbeat(&msg), Some((host, 7)));
    }
}
