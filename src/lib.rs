//! # legion — a reproduction of *The Core Legion Object Model*
//!
//! Facade crate re-exporting the whole workspace. See the README for a
//! tour, `DESIGN.md` for the system inventory, and `EXPERIMENTS.md` for
//! the paper-claim-vs-measured record.
//!
//! ```
//! use legion::core::value::LegionValue;
//! use legion::runtime::protocol::class as class_proto;
//! use legion::sim::system::{LegionSystem, SystemConfig};
//!
//! let mut sys = LegionSystem::build(SystemConfig::default());
//! let (class, ep) = sys.classes[0];
//! let name = vec![LegionValue::from("MyClass")];
//! let my_class = sys
//!     .call_for_binding(ep.element(), class, class_proto::DERIVE, name)
//!     .unwrap();
//! let my_ep = *my_class.address.primary().unwrap();
//! let instance = sys
//!     .call_for_binding(my_ep, my_class.loid, class_proto::CREATE, vec![])
//!     .unwrap();
//! assert_eq!(instance.loid.class_loid(), my_class.loid);
//! ```

pub use legion_chaos as chaos;
pub use legion_core as core;
pub use legion_ha as ha;
pub use legion_journal as journal;
pub use legion_naming as naming;
pub use legion_net as net;
pub use legion_obs as obs;
pub use legion_persist as persist;
pub use legion_runtime as runtime;
pub use legion_security as security;
pub use legion_sim as sim;
