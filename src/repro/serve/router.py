"""HTTP request/response types and the route table.

The serving layer speaks a deliberately small slice of HTTP/1.1 over
asyncio streams (stdlib only — no web framework).  This module holds the
protocol-independent pieces: a parsed :class:`Request`, a :class:`Response`
under construction, typed :class:`HttpError`\\ s handlers may raise, and
the :class:`Router` mapping ``METHOD /path/{param}`` patterns to handler
callables.

Handlers are ``async def handler(app, request, **path_params)`` returning
a JSON-able payload or its JSON text as ``bytes`` (either is wrapped into
the provenance envelope by the app), or a ready :class:`Response` for
non-JSON bodies (``/metrics``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

__all__ = [
    "HttpError",
    "Request",
    "Response",
    "Route",
    "Router",
    "encode_json",
    "json_head",
]

REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def encode_json(value: Any) -> bytes:
    """*value*'s JSON text, as every response body spells it."""
    return json.dumps(value).encode()


def json_head(obj: Dict[str, Any]) -> bytes:
    """:func:`encode_json` of *obj* cut before its last value, ``None``.

    ``json_head(obj) + encode_json(v) + b"}"`` is the text of *obj* with
    ``v`` in place of that ``None``: JSON text nests by concatenation, so
    a value encoded once can be wrapped without being encoded again.
    """
    text = encode_json(obj)
    if not text.endswith(b"null}"):
        raise ValueError("the last value of a JSON head must be None")
    return text[: -len(b"null}")]


class HttpError(Exception):
    """A handler-level failure with an HTTP status and a JSON error body."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
        **detail: Any,
    ):
        super().__init__(message)
        self.status = int(status)
        self.message = message
        self.headers = dict(headers or {})
        self.detail = detail

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"error": self.message, "status": self.status}
        body.update(self.detail)
        return body


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes
    client: str
    #: The request's trace id — honored from an incoming ``traceparent``
    #: / ``X-Trace-Id`` header or minted by the app at dispatch, and
    #: echoed back as ``X-Trace-Id``.
    trace_id: Optional[str] = None

    @classmethod
    def parse_target(cls, target: str) -> Tuple[str, Dict[str, str]]:
        """Split a request target into (path, query dict)."""
        parts = urlsplit(target)
        return parts.path or "/", dict(parse_qsl(parts.query))

    def json(self) -> Any:
        """The body parsed as JSON; 400 on malformed input."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")

    def json_object(self) -> Dict[str, Any]:
        """The body as a JSON *object*; 400 when it is any other shape."""
        payload = self.json()
        if not isinstance(payload, dict):
            raise HttpError(
                400,
                "request body must be a JSON object, got "
                f"{type(payload).__name__}",
            )
        return payload

    def param_float(self, name: str, default: Optional[float] = None) -> Optional[float]:
        """A query parameter as float; 400 on a malformed value."""
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise HttpError(400, f"query parameter {name}={raw!r} is not a number")

    def param_int(self, name: str, default: Optional[int] = None) -> Optional[int]:
        """A query parameter as int; 400 on a malformed value."""
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise HttpError(
                400, f"query parameter {name}={raw!r} is not an integer"
            )


@dataclass
class Response:
    """A response under construction; the app serialises and sends it."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def text(
        cls,
        content: str,
        status: int = 200,
        content_type: str = "text/plain; charset=utf-8",
    ) -> "Response":
        return cls(status=status, body=content.encode(), content_type=content_type)

    @property
    def reason(self) -> str:
        return REASONS.get(self.status, "Unknown")


_PARAM = re.compile(r"\{(\w+)\}")


@dataclass(frozen=True)
class Route:
    """One ``METHOD pattern -> handler`` entry."""

    method: str
    pattern: str
    name: str
    handler: Callable[..., Any]
    regex: "re.Pattern[str]"

    def match(self, path: str) -> Optional[Dict[str, str]]:
        found = self.regex.match(path)
        return found.groupdict() if found is not None else None


class Router:
    """Ordered route table with ``{param}`` path captures.

    ``resolve`` distinguishes "no such path" (404) from "path exists but
    not with this method" (405 with an ``Allow`` header), which clients
    probing the API surface rely on.
    """

    def __init__(self) -> None:
        self._routes: List[Route] = []

    def add(
        self,
        method: str,
        pattern: str,
        handler: Callable[..., Any],
        name: Optional[str] = None,
    ) -> None:
        regex = re.compile(
            "^" + _PARAM.sub(r"(?P<\1>[^/]+)", pattern) + "$"
        )
        route_name = name if name is not None else pattern.strip("/").replace(
            "/", "."
        ).replace("{", "").replace("}", "") or "root"
        self._routes.append(
            Route(
                method=method.upper(),
                pattern=pattern,
                name=route_name,
                handler=handler,
                regex=regex,
            )
        )

    def resolve(self, method: str, path: str) -> Tuple[Route, Dict[str, str]]:
        """The matching route and its path params; raises 404/405."""
        allowed: List[str] = []
        for route in self._routes:
            params = route.match(path)
            if params is None:
                continue
            if route.method == method.upper():
                return route, params
            allowed.append(route.method)
        if allowed:
            raise HttpError(
                405,
                f"method {method} not allowed for {path}",
                headers={"Allow": ", ".join(sorted(set(allowed)))},
            )
        raise HttpError(
            404,
            f"no route for {path}",
            routes=sorted({r.pattern for r in self._routes}),
        )

    @property
    def routes(self) -> List[Route]:
        return list(self._routes)
