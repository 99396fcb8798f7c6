"""OS IPC substrate: local RPC between real processes, a COM-like
component model with in-proc and out-of-proc activation (Table 2), and
the cross-process LRMI transport that deploys whole J-Kernel domains
out-of-process behind marshalling capability proxies."""

from .com import (
    IN_PROC,
    OUT_OF_PROC,
    ComError,
    ComHost,
    ComInterface,
    ComRegistry,
    InterfacePointer,
    connect_proxy,
    create_instance,
)
from .lrmi import (
    DomainClient,
    DomainDeadlineError,
    DomainHostProcess,
    ExportTable,
    ProtocolError,
    RemoteCapability,
    connect,
    exported_methods,
)
from .ntrpc import (
    PING_METHOD,
    RpcClient,
    RpcDeadlineError,
    RpcError,
    RpcHandlerError,
    RpcMethodNotFound,
    RpcServer,
    RpcServerProcess,
    RpcTransportError,
    null_server,
)
from .wire import WireError, recv_frame, send_frame

__all__ = [
    "ComError",
    "ComHost",
    "ComInterface",
    "ComRegistry",
    "DomainClient",
    "DomainDeadlineError",
    "DomainHostProcess",
    "ExportTable",
    "IN_PROC",
    "InterfacePointer",
    "OUT_OF_PROC",
    "PING_METHOD",
    "ProtocolError",
    "RemoteCapability",
    "RpcClient",
    "RpcDeadlineError",
    "RpcError",
    "RpcHandlerError",
    "RpcMethodNotFound",
    "RpcServer",
    "RpcServerProcess",
    "RpcTransportError",
    "WireError",
    "connect",
    "connect_proxy",
    "create_instance",
    "exported_methods",
    "null_server",
    "recv_frame",
    "send_frame",
]
