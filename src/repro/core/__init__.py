"""GoFlow: the crowd-sensing middleware (the paper's core system).

Figure 2's components, one module each:

- :mod:`repro.core.api` — the REST-based GoFlow API (routing,
  authentication, request/response model);
- :mod:`repro.core.accounts` — account and access management (apps,
  users, roles, credentials);
- :mod:`repro.core.auth` — token issuance and validation;
- :mod:`repro.core.channels` — channel management: creates and wires
  the RabbitMQ exchanges/queues of Figure 3 on behalf of clients;
- :mod:`repro.core.datamgmt` — crowd-sensed data management: filtered
  retrieval and packaging (json stream, file);
- :mod:`repro.core.jobs` — background jobs over the stored data;
- :mod:`repro.core.analytics` — crowd-sensing analytics;
- :mod:`repro.core.privacy` — the CNIL privacy policy: pseudonymization,
  private-field stripping, open-data location coarsening;
- :mod:`repro.core.server` — the composition root tying everything to
  the broker and the document store.

``GoFlowServer`` is resolved on first access instead of at import: the
composition root is the one core module that imports *upward*
(``repro.sharding``, ``repro.streaming``), and both of those import
core leaves (``repro.core.errors``, ``repro.core.datamgmt``). Importing
it eagerly here made ``import repro.sharding`` / ``import
repro.streaming`` fail in a fresh interpreter with a partially
initialised module.
"""

from typing import Any

from repro.core.errors import (
    AuthenticationError,
    AuthorizationError,
    GoFlowError,
    NotFoundError,
    ValidationError,
)
from repro.core.privacy import PrivacyPolicy
from repro.core.accounts import Account, AccountManager, Role
from repro.core.auth import TokenService
from repro.core.channels import ChannelManager, ClientChannels
from repro.core.datamgmt import DataManager, DataQuery
from repro.core.jobs import BackgroundJob, JobManager, JobStatus
from repro.core.analytics import AnalyticsEngine
from repro.core.api import GoFlowAPI, Request, Response
from repro.core.retention import RetentionEnforcer, RetentionPolicy


def __getattr__(name: str) -> Any:
    if name == "GoFlowServer":
        from repro.core.server import GoFlowServer

        return GoFlowServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Account",
    "AccountManager",
    "AnalyticsEngine",
    "AuthenticationError",
    "AuthorizationError",
    "BackgroundJob",
    "ChannelManager",
    "ClientChannels",
    "DataManager",
    "DataQuery",
    "GoFlowAPI",
    "GoFlowError",
    "GoFlowServer",
    "JobManager",
    "JobStatus",
    "NotFoundError",
    "PrivacyPolicy",
    "Request",
    "Response",
    "RetentionEnforcer",
    "RetentionPolicy",
    "Role",
    "TokenService",
    "ValidationError",
]
