//! Bootstrap: bringing up the core objects (paper §4.2.1).
//!
//! "The creation and activation of this set of objects must be carried out
//! by mechanisms different from those used for normal Legion objects ...
//! The core objects, including the core Abstract classes (LegionObject,
//! LegionClass, etc.), Host Objects, and Magistrates, are intended to be
//! started from the command line or shell script in the host operating
//! system. ... The Abstract class objects are started exactly once — when
//! the Legion system comes alive."
//!
//! [`CoreSystem`] performs that once-only bring-up on a kernel: the
//! LegionClass endpoint, class endpoints for the core Abstract classes,
//! and helpers for attaching externally started Hosts and Magistrates.

use crate::class_endpoint::{ClassConfig, ClassEndpoint, LegionClassEndpoint};
use crate::host::{HostConfig, HostObjectEndpoint, ObjectFactory};
use crate::magistrate::{MagistrateConfig, MagistrateEndpoint};
use legion_core::address::{ObjectAddress, ObjectAddressElement};
use legion_core::binding::Binding;
use legion_core::class::{class_mandatory_interface, ClassKind, ClassObject};
use legion_core::loid::Loid;
use legion_core::object::object_mandatory_interface;
use legion_core::wellknown::{
    LEGION_BINDING_AGENT, LEGION_CLASS, LEGION_HOST, LEGION_MAGISTRATE, LEGION_OBJECT,
};
use legion_net::sim::{EndpointId, SimKernel};
use legion_net::topology::Location;

/// Handles to the core endpoints after bootstrap.
pub struct CoreSystem {
    /// The LegionClass metaclass endpoint.
    pub legion_class: EndpointId,
    /// The LegionObject class endpoint.
    pub legion_object: EndpointId,
    /// The LegionHost class endpoint (Host Objects announce here).
    pub legion_host: EndpointId,
    /// The LegionMagistrate class endpoint.
    pub legion_magistrate: EndpointId,
    /// The LegionBindingAgent class endpoint.
    pub legion_binding_agent: EndpointId,
}

impl CoreSystem {
    /// Start the core Abstract class objects exactly once, at `location`.
    pub fn bootstrap(kernel: &mut SimKernel, location: Location) -> CoreSystem {
        // The metaclass endpoint is created first so everyone can know its
        // address; class bindings for the core classes are registered as
        // they come up.
        let legion_class_id = kernel.endpoint_count() as u64;
        let legion_class_element = ObjectAddressElement::sim(legion_class_id);

        let cfg = ClassConfig {
            legion_class: legion_class_element,
            magistrates: Vec::new(),
            binding_agent: None,
            binding_ttl_ns: None,
            admission: None,
            notify_holders: true,
        };

        // Build the Abstract core classes with their paper interfaces.
        let mk = |loid: Loid, name: &str, with_class_mandatory: bool| {
            let mut c = ClassObject::new(loid, name, ClassKind::ABSTRACT);
            c.interface = object_mandatory_interface(LEGION_OBJECT);
            if with_class_mandatory {
                c.interface
                    .merge_from_with_owner(&class_mandatory_interface(LEGION_CLASS), loid)
                    .expect("core interfaces cannot conflict");
            }
            c.superclass = if loid == LEGION_OBJECT {
                None
            } else if loid == LEGION_CLASS {
                Some(LEGION_OBJECT)
            } else {
                Some(LEGION_CLASS)
            };
            ClassEndpoint::new(c, cfg.clone())
        };

        let legion_object_ep = mk(LEGION_OBJECT, "LegionObject", false);
        let legion_host_ep = mk(LEGION_HOST, "LegionHost", true);
        let legion_magistrate_ep = mk(LEGION_MAGISTRATE, "LegionMagistrate", true);
        let legion_binding_agent_ep = mk(LEGION_BINDING_AGENT, "LegionBindingAgent", true);

        // Attach: LegionClass first (its id must match the element above).
        let legion_class = kernel.add_endpoint(
            Box::new(LegionClassEndpoint::new()),
            location,
            "LegionClass",
        );
        assert_eq!(
            legion_class.0, legion_class_id,
            "metaclass id must be stable"
        );
        let legion_object =
            kernel.add_endpoint(Box::new(legion_object_ep), location, "class:LegionObject");
        let legion_host =
            kernel.add_endpoint(Box::new(legion_host_ep), location, "class:LegionHost");
        let legion_magistrate = kernel.add_endpoint(
            Box::new(legion_magistrate_ep),
            location,
            "class:LegionMagistrate",
        );
        let legion_binding_agent = kernel.add_endpoint(
            Box::new(legion_binding_agent_ep),
            location,
            "class:LegionBindingAgent",
        );

        // Register the core class bindings with the metaclass: for these,
        // the responsibility chain "can end ... when the responsible class
        // is LegionClass itself".
        let live = kernel
            .endpoint_mut::<LegionClassEndpoint>(legion_class)
            .expect("just added");
        for (loid, ep) in [
            (LEGION_OBJECT, legion_object),
            (LEGION_HOST, legion_host),
            (LEGION_MAGISTRATE, legion_magistrate),
            (LEGION_BINDING_AGENT, legion_binding_agent),
            (LEGION_CLASS, legion_class),
        ] {
            live.register_class_binding(Binding::forever(
                loid,
                ObjectAddress::single(ep.element()),
            ));
        }

        CoreSystem {
            legion_class,
            legion_object,
            legion_host,
            legion_magistrate,
            legion_binding_agent,
        }
    }

    /// The metaclass's address element (bootstrap knowledge for agents and
    /// classes).
    pub fn legion_class_element(&self) -> ObjectAddressElement {
        self.legion_class.element()
    }

    /// Start a Host Object "from outside Legion": it announces itself to
    /// LegionHost on start (§4.2.1).
    pub fn start_host(
        &self,
        kernel: &mut SimKernel,
        loid: Loid,
        location: Location,
        capacity: u32,
        magistrate: Option<Loid>,
        factory: Option<ObjectFactory>,
    ) -> EndpointId {
        let cfg = HostConfig {
            loid,
            capacity,
            magistrate,
            class_addr: Some(self.legion_host.element()),
        };
        let host = match factory {
            Some(f) => HostObjectEndpoint::with_factory(cfg, f),
            None => HostObjectEndpoint::new(cfg),
        };
        kernel.add_endpoint(Box::new(host), location, format!("host:{loid}"))
    }

    /// Start a Magistrate "from outside Legion": it announces itself to
    /// LegionMagistrate on start.
    pub fn start_magistrate(
        &self,
        kernel: &mut SimKernel,
        loid: Loid,
        location: Location,
        jurisdiction: u32,
        disks: usize,
        disk_capacity: u64,
    ) -> EndpointId {
        let cfg = MagistrateConfig {
            loid,
            jurisdiction,
            class_addr: Some(self.legion_magistrate.element()),
            disks,
            disk_capacity,
        };
        kernel.add_endpoint(
            Box::new(MagistrateEndpoint::new(cfg)),
            location,
            format!("magistrate:{loid}"),
        )
    }
}
