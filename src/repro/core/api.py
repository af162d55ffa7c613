"""The REST-based GoFlow API.

"REST-based GoFlow API is for clients and administrators to:
authenticate and register subscribers and publishers, retrieve
crowd-sensed data based on various filtering parameters, manage user
accounts for an app, and submit and manage background jobs."

The transport is in-process: a :class:`Request` goes through the router
to a handler and yields a :class:`Response` with an HTTP-like status
code. Path templates use ``{param}`` segments. Authentication is a
bearer token resolved by the token service; per-route minimum roles, and
that an ``{app_id}`` path names the token's own app, are enforced before
the handler runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.accounts import Role
from repro.core.auth import Principal, TokenService
from repro.core.errors import (
    AuthenticationError,
    AuthorizationError,
    GoFlowError,
    NotFoundError,
    ValidationError,
)
from repro.errors import ReproError


@dataclass
class Request:
    """An API request."""

    method: str
    path: str
    params: Dict[str, str] = field(default_factory=dict)
    body: Any = None
    token: Optional[str] = None


@dataclass
class Response:
    """An API response."""

    status: int
    body: Any = None

    @property
    def ok(self) -> bool:
        """Whether the status is 2xx."""
        return 200 <= self.status < 300


Handler = Callable[[Request, Dict[str, str], Optional[Principal]], Any]


@dataclass
class _Route:
    method: str
    pattern: re.Pattern
    template: str
    handler: Handler
    min_role: Optional[Role]
    shared: bool


def _compile_template(template: str) -> re.Pattern:
    if not template.startswith("/"):
        raise ValidationError(f"route template must start with '/': {template!r}")
    parts = []
    for segment in template.strip("/").split("/"):
        if segment.startswith("{") and segment.endswith("}"):
            name = segment[1:-1]
            if not name.isidentifier():
                raise ValidationError(f"bad path parameter {segment!r}")
            parts.append(f"(?P<{name}>[^/]+)")
        else:
            parts.append(re.escape(segment))
    return re.compile("^/" + "/".join(parts) + "$")


class GoFlowAPI:
    """Router + auth middleware for the GoFlow REST surface."""

    def __init__(self, tokens: TokenService) -> None:
        self._tokens = tokens
        self._routes: List[_Route] = []

    def route(
        self,
        method: str,
        template: str,
        handler: Handler,
        min_role: Optional[Role] = None,
        shared: bool = False,
    ) -> None:
        """Register ``handler`` for ``method template``.

        ``min_role=None`` makes the route public (login itself must be).
        An ``{app_id}`` route only serves tokens of that app, unless
        ``shared`` marks it as a sharing read open to every app.
        """
        method = method.upper()
        if method not in ("GET", "POST", "PUT", "DELETE"):
            raise ValidationError(f"unsupported method {method!r}")
        self._routes.append(
            _Route(
                method=method,
                pattern=_compile_template(template),
                template=template,
                handler=handler,
                min_role=min_role,
                shared=shared,
            )
        )

    def dispatch(self, request: Request) -> Response:
        """Route a request; maps middleware errors to status codes."""
        matched_path = False
        for route in self._routes:
            match = route.pattern.match(request.path)
            if match is None:
                continue
            matched_path = True
            if route.method != request.method.upper():
                continue
            principal: Optional[Principal] = None
            path = match.groupdict()
            try:
                if route.min_role is not None:
                    principal = self._tokens.validate(request.token)
                    if not principal.role.at_least(route.min_role):
                        raise AuthorizationError(
                            f"{principal.user_id!r} lacks role "
                            f"{route.min_role.value!r}"
                        )
                    app_id = path.get("app_id")
                    if app_id not in (None, principal.app_id) and not route.shared:
                        raise AuthorizationError(
                            f"{principal.user_id!r} is not a user of app {app_id!r}"
                        )
                result = route.handler(request, path, principal)
            except AuthenticationError as exc:
                return Response(status=401, body={"error": str(exc)})
            except AuthorizationError as exc:
                return Response(status=403, body={"error": str(exc)})
            except NotFoundError as exc:
                return Response(status=404, body={"error": str(exc)})
            except ValidationError as exc:
                return Response(status=400, body={"error": str(exc)})
            except GoFlowError as exc:
                return Response(status=500, body={"error": str(exc)})
            except ReproError as exc:
                # lower-layer failures (docstore, broker) must surface as
                # a server error, not escape the transport: batch-uplink
                # clients rely on a non-2xx response to retransmit.
                return Response(status=500, body={"error": str(exc)})
            if isinstance(result, Response):
                return result
            return Response(status=200, body=result)
        if matched_path:
            return Response(status=405, body={"error": "method not allowed"})
        return Response(status=404, body={"error": f"no route for {request.path!r}"})

    def routes(self) -> List[Tuple[str, str]]:
        """(method, template) of every registered route."""
        return [(r.method, r.template) for r in self._routes]
