"""The SoundCity application server's REST surface.

Composes the GoFlow core with the application services (exposure,
journeys, feedback) and mounts their routes on the same router — the
deployment of Figure 1, where the Web application server sits beside
the crowd-sensing server and both are reached over REST.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.accounts import Role
from repro.core.api import Request, Response
from repro.core.errors import ValidationError
from repro.core.server import GoFlowServer
from repro.webapp.exposure import ExposureService
from repro.webapp.feedback import FeedbackService, PromptPolicy
from repro.webapp.journeys import JourneyService, Visibility


class SoundCityApp:
    """The user-facing application server on top of one GoFlow instance."""

    def __init__(
        self,
        server: GoFlowServer,
        app_id: str = "SC",
        prompt_policy: Optional[PromptPolicy] = None,
    ) -> None:
        self.server = server
        self.app_id = app_id
        self.exposure = ExposureService(server.store, server.privacy)
        self.journeys = JourneyService(
            server.store, server.privacy, broker=server.broker, app_id=app_id
        )
        self.feedback = FeedbackService(
            server.store,
            server.privacy,
            broker=server.broker,
            policy=prompt_policy,
            app_id=app_id,
        )
        self._register_routes()

    # -- REST surface ---------------------------------------------------------

    def _register_routes(self) -> None:
        api = self.server.api
        api.route("GET", "/me/exposure/daily/{day}", self._r_daily, Role.CONTRIBUTOR)
        api.route(
            "GET", "/me/exposure/monthly/{month}", self._r_monthly, Role.CONTRIBUTOR
        )
        api.route(
            "GET", "/me/exposure/hourly/{day}", self._r_hourly, Role.CONTRIBUTOR
        )
        api.route("POST", "/journeys", self._r_create_journey, Role.CONTRIBUTOR)
        api.route("GET", "/journeys", self._r_my_journeys, Role.CONTRIBUTOR)
        api.route("GET", "/journeys/public", self._r_public_journeys, Role.CONTRIBUTOR)
        api.route(
            "GET", "/journeys/{journey_id}/summary", self._r_journey_summary,
            Role.CONTRIBUTOR,
        )
        api.route(
            "POST", "/journeys/{journey_id}/share", self._r_share_journey,
            Role.CONTRIBUTOR,
        )
        api.route("POST", "/feedback", self._r_submit_feedback, Role.CONTRIBUTOR)
        api.route("GET", "/me/sensitivity", self._r_sensitivity, Role.CONTRIBUTOR)
        api.route("GET", "/map/live", self._r_live_map, Role.CONTRIBUTOR)

    def handle(self, request: Request) -> Response:
        """Entry point (shares the GoFlow router)."""
        return self.server.handle(request)

    # -- handlers ------------------------------------------------------------------

    @staticmethod
    def _summary_body(summary) -> Dict[str, Any]:
        return {
            "period": summary.period,
            "measurements": summary.measurement_count,
            "leq_dba": summary.leq_dba,
            "min_dba": summary.min_dba,
            "max_dba": summary.max_dba,
            "band": summary.band,
            "advice": summary.advice,
        }

    def _r_daily(self, request: Request, path, principal) -> Any:
        return self._summary_body(
            self.exposure.daily(principal.user_id, int(path["day"]))
        )

    def _r_monthly(self, request: Request, path, principal) -> Any:
        return self._summary_body(
            self.exposure.monthly(principal.user_id, int(path["month"]))
        )

    def _r_hourly(self, request: Request, path, principal) -> Any:
        profile = self.exposure.hourly_profile(principal.user_id, int(path["day"]))
        return {str(hour): level for hour, level in sorted(profile.items())}

    def _r_create_journey(self, request: Request, path, principal) -> Any:
        body = request.body or {}
        for required in ("title", "started_at", "ended_at"):
            if required not in body:
                raise ValidationError(f"missing field {required!r}")
        journey = self.journeys.create(
            principal.user_id,
            body["title"],
            float(body["started_at"]),
            float(body["ended_at"]),
            home_zone=body.get("home_zone", "Z0-0"),
        )
        return {"journey_id": journey.journey_id}

    def _r_my_journeys(self, request: Request, path, principal) -> Any:
        journeys = self.journeys.for_user(principal.user_id)
        for journey in journeys:
            journey.pop("_id", None)
            journey.pop("owner", None)
        return journeys

    def _r_public_journeys(self, request: Request, path, principal) -> Any:
        journeys = self.journeys.public(zone=request.params.get("zone"))
        for journey in journeys:
            journey.pop("_id", None)
            journey.pop("owner", None)
        return journeys

    def _r_journey_summary(self, request: Request, path, principal) -> Any:
        return self.journeys.summary(int(path["journey_id"]))

    def _r_share_journey(self, request: Request, path, principal) -> Any:
        body = request.body or {}
        visibility = Visibility(body.get("visibility", "public"))
        self.journeys.share(principal.user_id, int(path["journey_id"]), visibility)
        return {"visibility": visibility.value}

    def _r_submit_feedback(self, request: Request, path, principal) -> Any:
        body = request.body or {}
        if "rating" not in body:
            raise ValidationError("missing rating")
        feedback_id = self.feedback.submit(
            principal.user_id,
            int(body["rating"]),
            text=body.get("text", ""),
            zone=body.get("zone", "NOLOC"),
            taken_at=float(body.get("taken_at", 0.0)),
            noise_dba=body.get("noise_dba"),
        )
        return {"feedback_id": feedback_id}

    def _r_sensitivity(self, request: Request, path, principal) -> Any:
        return self.feedback.sensitivity_profile(principal.user_id)

    def _r_live_map(self, request: Request, path, principal) -> Any:
        """The push-maintained noise map, scoped to this application's
        tiles — co-hosted apps' observations never surface here. The
        first request builds the scope from the store; it is kept and
        folded forward as observations are stored, so later polls never
        rescan, and a write it was not handed (an erasure) makes the
        next poll rebuild it."""
        region = request.params.get("region")
        tiles = self.server.streaming.tiles_snapshot(
            region=region, app_id=self.app_id
        )
        return {"cell_m": self.server.streaming.cell_m, "tiles": tiles}
