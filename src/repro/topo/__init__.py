"""repro.topo: declarative topology descriptors + the generator zoo.

The fabric-manager-driven topology layer (ROADMAP: "Fabric Manager +
declarative topology layer"):

* :mod:`~repro.topo.descriptor` — the typed, JSON-(de)serializable
  mesh/pod/cluster schema with validation and path-precise errors;
* :mod:`~repro.topo.generators` — parameterized star / chain /
  fat-tree / dragonfly builders that emit descriptors;
* :mod:`~repro.topo.compiler`   — the mapper that deterministically
  wires a descriptor into a :class:`~repro.pcie.topology.Topology` and
  runs :class:`~repro.pcie.manager.FabricManager` route fill;
* :mod:`~repro.topo.verify`     — full endpoint-to-endpoint
  reachability and ECMP checks over the installed tables;
* :mod:`~repro.topo.resolve`    — one string ("interleave",
  "fat_tree:pods=2") names any committed shape or generator call.

Committed shapes live in ``repro/topo/shapes/*.json``; ``repro topo
{list,show,validate}`` is the CLI face.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "compiler": ("CompiledFabric", "compile_topology"),
    "descriptor": ("DescriptorError", "EndpointSpec", "LinkClassSpec",
                   "PodSpec", "SwitchLinkSpec", "SwitchSpec",
                   "TopologyDescriptor", "load_descriptor"),
    "generators": ("GENERATORS", "GenParam", "Generator", "build_generated",
                   "chain", "dragonfly", "fat_tree", "generator_names",
                   "star"),
    "resolve": ("SHAPES_DIR", "UnknownTopologyError", "load_shape",
                "resolve_topology", "shape_names", "topology_choices"),
    "verify": ("VerificationError", "ecmp_counts", "verify_reachability"),
})
