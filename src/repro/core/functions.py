"""Hardware cooperative scalable functions (the second DP#3 abstraction).

Extends SR-IOV-style scalable functions with an *active execution
context*, as the paper proposes: each function owns (1) a
domain-specific processing core (its serial execution loop), (2) a list
of message handlers in the actor style, and (3) an execution
coordination sublayer encoding how it interacts with co-located
functions — the whole design "resembles the TAM and active messages".

:class:`FunctionChassis` is the hardware template FAAs inherit: it
fronts a set of :class:`ScalableFunction` instances behind one FEA,
delivers fabric messages into their mailboxes, and provides the cheap
co-located message path.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..fabric.flit import Channel, Packet, PacketKind
from ..fabric.transaction import TransactionPort
from ..sim import Environment, Event, Store
from ..infra.adapters import FabricEndpointAdapter

__all__ = ["Message", "HandlerResult", "ScalableFunction",
           "FunctionChassis", "FunctionContext", "migrate_function"]

_message_ids = itertools.count()


@dataclasses.dataclass
class Message:
    """One actor message."""

    msg_type: str
    payload: Any = None
    src: str = ""                      # sending function ("" = fabric)
    reply_to: Optional[Event] = None   # fires with the handler result
    uid: int = dataclasses.field(default_factory=lambda: next(_message_ids))


@dataclasses.dataclass
class HandlerResult:
    """What a message handler returns.

    ``compute_ns`` is charged on the function's core; ``outgoing`` are
    messages routed through the coordination sublayer.
    """

    compute_ns: float = 0.0
    value: Any = None
    outgoing: List[Tuple[str, Message]] = dataclasses.field(
        default_factory=list)


#: handler signature: (state, message) -> HandlerResult
Handler = Callable[[Dict[str, Any], Message], HandlerResult]


class ScalableFunction:
    """One function: a serial core, private state, message handlers."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.state: Dict[str, Any] = {}
        self._handlers: Dict[str, Handler] = {}
        self.mailbox: Optional[Store] = None   # attached by the chassis
        self.messages_handled = 0
        self.busy_ns = 0.0

    def on(self, msg_type: str, handler: Handler) -> "ScalableFunction":
        if msg_type in self._handlers:
            raise ValueError(f"{self.name}: handler for {msg_type!r} "
                             "already installed")
        self._handlers[msg_type] = handler
        return self

    def handler_for(self, msg_type: str) -> Optional[Handler]:
        return self._handlers.get(msg_type)

    def handled_types(self) -> List[str]:
        return sorted(self._handlers)


class FunctionChassis:
    """The FAA hardware template hosting cooperative functions."""

    def __init__(self, env: Environment, port: TransactionPort,
                 functions: List[ScalableFunction],
                 coordination_ns: float = 15.0,
                 name: str = "fnchassis") -> None:
        if not functions:
            raise ValueError("need at least one function")
        self.env = env
        self.name = name
        self.coordination_ns = coordination_ns
        self.functions: Dict[str, ScalableFunction] = {}
        self.local_messages = 0
        self.fabric_messages = 0
        for function in functions:
            if function.name in self.functions:
                raise ValueError(f"duplicate function {function.name!r}")
            function.mailbox = Store(env)
            self.functions[function.name] = function
            env.process(self._core(function),
                        name=f"{name}.{function.name}", daemon=True)
        self.fea = FabricEndpointAdapter(env, port, self._from_fabric,
                                         concurrency=len(functions),
                                         name=f"{name}.fea")
        self.port = port

    # -- fabric-facing -------------------------------------------------------

    def _from_fabric(self, request: Packet
                     ) -> Generator[Event, None, Optional[Packet]]:
        """Deliver a fabric packet into a function mailbox."""
        target = request.meta.get("function")
        function = self.functions.get(target)
        response = request.make_response()
        if function is None:
            response.meta["fault"] = True
            response.meta["error"] = f"no function {target!r}"
            yield self.env.timeout(0)
            return response
        self.fabric_messages += 1
        message = Message(msg_type=request.meta.get("msg_type", "call"),
                          payload=request.meta.get("payload"))
        if request.meta.get("await", True):
            message.reply_to = self.env.event()
            function.mailbox.put_forget(message)
            try:
                result = yield message.reply_to
            except Exception as exc:
                response.meta["fault"] = True
                response.meta["error"] = str(exc)
            else:
                response.meta["result"] = result
        else:
            function.mailbox.put_forget(message)
            response.meta["accepted"] = True
        return response

    # -- the coordination sublayer ----------------------------------------------

    def send_local(self, dst: str, message: Message
                   ) -> Generator[Event, None, None]:
        """Co-located function-to-function message (cheap path)."""
        function = self.functions.get(dst)
        if function is None:
            raise KeyError(f"{self.name}: no co-located function {dst!r}")
        yield self.env.timeout(self.coordination_ns)
        self.local_messages += 1
        function.mailbox.put_forget(message)

    # -- per-function serial cores -------------------------------------------------

    def _core(self, function: ScalableFunction
              ) -> Generator[Event, None, None]:
        while True:
            message: Message = yield function.mailbox.get()
            handler = function.handler_for(message.msg_type)
            if handler is None:
                if message.reply_to is not None:
                    message.reply_to.fail(
                        KeyError(f"{function.name}: no handler for "
                                 f"{message.msg_type!r}"))
                continue
            result = handler(function.state, message)
            if result.compute_ns > 0:
                yield self.env.timeout(result.compute_ns)
                function.busy_ns += result.compute_ns
            function.messages_handled += 1
            for dst, outgoing in result.outgoing:
                yield from self.send_local(dst, outgoing)
            if message.reply_to is not None:
                message.reply_to.succeed(result.value)


@dataclasses.dataclass
class FunctionContext:
    """A checkpointed execution context, ready to ship over the fabric.

    Difference #4: "memory fabrics provide a lightweight and fast
    mechanism to create, checkpoint, and ship computing contexts".
    The context carries the function's private state, its undelivered
    mailbox, and an estimated wire size (state is a handful of
    cachelines, each pending message one more).
    """

    name: str
    state: Dict[str, Any]
    pending: List[Message]
    handlers: Dict[str, Handler]

    @property
    def wire_bytes(self) -> int:
        state_bytes = max(64, 64 * len(self.state))
        return state_bytes + 64 * len(self.pending)


class _CheckpointMixin:
    """Checkpoint/restore operations, mixed into FunctionChassis."""

    def checkpoint(self, name: str) -> FunctionContext:
        """Freeze a function: detach it and capture its context.

        The function stops receiving; its unprocessed messages travel
        with the context (no message is lost).  In-flight handler
        execution completes first in a real system; our cores are
        serial, so the mailbox snapshot is exact.
        """
        function = self.functions.pop(name, None)
        if function is None:
            raise KeyError(f"{self.name}: no function {name!r}")
        pending = list(function.mailbox.items)
        function.mailbox.items.clear()
        return FunctionContext(name=name, state=dict(function.state),
                               pending=pending,
                               handlers=dict(function._handlers))

    def restore(self, context: FunctionContext) -> ScalableFunction:
        """Instantiate a shipped context on this chassis."""
        if context.name in self.functions:
            raise ValueError(
                f"{self.name}: function {context.name!r} already here")
        function = ScalableFunction(context.name)
        function.state = dict(context.state)
        function._handlers = dict(context.handlers)
        function.mailbox = Store(self.env)
        for message in context.pending:
            function.mailbox.put_forget(message)
        self.functions[context.name] = function
        self.env.process(self._core(function),
                         name=f"{self.name}.{context.name}", daemon=True)
        return function


# Mix the checkpoint operations into the chassis template.
FunctionChassis.checkpoint = _CheckpointMixin.checkpoint
FunctionChassis.restore = _CheckpointMixin.restore


def migrate_function(env: Environment, host_port: TransactionPort,
                     src: FunctionChassis, dst: FunctionChassis,
                     dst_id: int, name: str):
    """Ship a function's execution context src -> dst over the fabric.

    The host orchestrates (it owns the placement decision, as the
    paper's case study requires: "applications decide where the
    computation is performed and when it is moved"); the context rides
    as packet payload — plain fabric stores, no API remoting.

    Usage: ``fn = yield from migrate_function(...)``.
    """
    context = src.checkpoint(name)
    packet = Packet(kind=PacketKind.IO_WR, channel=Channel.CXL_IO,
                    src=host_port.port_id, dst=dst_id,
                    nbytes=context.wire_bytes,
                    meta={"context_ship": True})
    # The destination FEA acks the context write; installation is a
    # metadata operation on the controller.
    yield from host_port.request(packet)
    function = dst.restore(context)
    return function
