#!/usr/bin/env python
"""Quickstart: stand up GoFlow, enroll a phone, sense, and query back.

Walks the full Figure 1 path in ~30 lines of API:

1. start a GoFlow server (broker + document store + REST API);
2. register the SoundCity app and enroll a user — the server creates the
   client's AMQP exchange/queue (Figure 3) and returns their ids;
3. run an hour of opportunistic sensing on a simulated OnePlus One;
4. query the stored observations back through the REST API;
5. batch-upload a second phone's backlog in one POST per 100
   observations — the batch fast path with exactly-once delivery.

Run:  python examples/quickstart.py
"""

from repro.client import AppVersion, BrokerUplink, GoFlowClient
from repro.client.uplink import RestBatchUplink
from repro.core import GoFlowServer, Request
from repro.devices import DeviceRegistry
from repro.sensing import PhoneContext, SensingScheduler
from repro.simulation import Simulator
from repro.webapp import SoundCityApp


def main() -> None:
    # -- middleware --------------------------------------------------------
    simulator = Simulator(seed=2016)
    server = GoFlowServer(clock=lambda: simulator.now)
    server.register_app("SC", private_fields=["activity"])
    credentials = server.enroll_user("SC", "alice", "s3cret")
    print(f"alice logged in; exchange={credentials['exchange']} "
          f"queue={credentials['queue']}")

    # -- the phone ----------------------------------------------------------
    model = DeviceRegistry().get("A0001")  # OnePlus One
    uplink = BrokerUplink(server.broker, credentials["exchange"], app_id="SC")
    client = GoFlowClient(
        "alice", AppVersion.V1_3, uplink, clock=lambda: simulator.now
    )
    scheduler = SensingScheduler(
        simulator,
        "alice",
        model,
        PhoneContext(x_m=2500.0, y_m=4100.0),
        client.on_observation,
        simulator.rngs.stream("phone.alice"),
        opportunistic_period_s=300.0,  # the paper's 5-minute default
    )

    # -- one hour of background sensing + one manual "sense now" -----------------
    scheduler.start_opportunistic(until=3600.0)
    simulator.at(1800.0, scheduler.sense_now)
    simulator.run_until(3600.0)
    client.flush()  # v1.3 buffers 10 observations; push the remainder

    print(f"produced={scheduler.produced} observations; "
          f"server ingested={server.ingested}")

    # -- query back through the REST API -------------------------------------------
    response = server.handle(
        Request(
            "GET",
            "/apps/SC/data",
            params={"limit": "3"},
            token=credentials["token"],
        )
    )
    print(f"GET /apps/SC/data -> {response.status}")
    for document in response.body:
        location = document.get("location")
        where = (
            f"({location['x_m']:.0f}, {location['y_m']:.0f}) "
            f"±{location['accuracy_m']:.0f}m via {location['provider']}"
            if location
            else "not localized"
        )
        print(f"  t={document['taken_at']:6.0f}s  "
              f"{document['noise_dba']:5.1f} dB(A)  {where}")

    totals = server.handle(
        Request("GET", "/apps/SC/analytics/totals", token=credentials["token"])
    )
    print(f"analytics totals: {totals.body}")

    # -- batch ingest: a second phone uploads its overnight backlog ---------------
    # One POST per 100 observations through the batch endpoint: the
    # server runs dedup, pseudonymization, the atomic store insert and
    # the analytics fold once per batch instead of once per document —
    # and a retransmitted batch deduplicates to exactly-once storage.
    bob = server.enroll_user("SC", "bob", "s3cret")
    batch_uplink = RestBatchUplink(server, app_id="SC", token=bob["token"])
    bob_client = GoFlowClient(
        "bob",
        AppVersion.V1_3,
        batch_uplink,
        clock=lambda: simulator.now,
        uplink_batch=100,  # buffer to full batches; flush in 100-doc POSTs
    )
    backlog = SensingScheduler(
        simulator,
        "bob",
        model,
        PhoneContext(x_m=900.0, y_m=1200.0),
        bob_client.on_observation,
        simulator.rngs.stream("phone.bob"),
        opportunistic_period_s=30.0,
    )
    backlog.start_opportunistic(until=simulator.now + 3 * 3600.0)
    simulator.run_until(simulator.now + 3 * 3600.0)
    bob_client.flush()
    print(f"bob uploaded {backlog.produced} observations in "
          f"{bob_client.stats.transmissions} batched transmissions; "
          f"server now holds {server.ingested} observations")

    # -- live subscription: push instead of poll ----------------------------------
    # A continuous query: the server fans matching observations out to
    # the subscription's outbox at ingest time (bounded queue,
    # drop-oldest + lagged markers if we fall behind), and folds a live
    # noise-map tile per 500 m grid cell — no per-poll rescans.
    live = bob_client.subscribe(
        server, token=bob["token"], tiles=True, filter_spec={"model": "A0001"}
    )
    backlog.start_opportunistic(until=simulator.now + 1800.0)
    simulator.run_until(simulator.now + 1800.0)
    bob_client.flush()
    events = live.drain()  # long-poll with automatic ack cursors
    pushed = [e for e in events if e["kind"] == "observation"]
    tiles = [e for e in events if e["kind"] == "tile"]
    print(f"live subscription pushed {len(pushed)} observations and "
          f"{len(tiles)} noise-map tile deltas (missed={live.missed})")
    webapp = SoundCityApp(server)  # the user-facing app server (Figure 1)
    live_map = webapp.handle(Request("GET", "/map/live", token=bob["token"]))
    print(f"GET /map/live -> {live_map.status}; "
          f"{len(live_map.body['tiles'])} tiles of "
          f"{live_map.body['cell_m']:.0f}m")
    live.close()

    # -- durable mode (opt-in crash safety) ---------------------------------------
    # The server above is in-memory: a crash loses everything. Pass
    # durable=True and a data directory to journal every write through
    # a write-ahead log and recover snapshot + log on startup — the
    # unique obs_id index is rebuilt with the documents, so exactly-once
    # ingest survives a kill -9 between two server lives:
    #
    #     server = GoFlowServer(durable=True, data_dir="/var/lib/goflow")
    #     server.store.checkpoint()   # compact the log into a snapshot
    #
    # Group commit (WalConfig(sync_policy="group")) amortizes fsyncs
    # across appends; see docs/ARCHITECTURE.md "Durability & crash
    # recovery" for the record format and the recovery guarantees.

    # -- scale-out (opt-in sharding) ------------------------------------------------
    # Pass sharding=N to partition the store over N consistent-hash
    # shards keyed by region — same API, scatter-gather reads, and
    # exactly-once ingest survives a live add/remove of a shard:
    #
    #     server = GoFlowServer(sharding=4)
    #     server.register_app("SC")
    #     server.data.ingest_many("SC", backlog_documents)
    #     server.middleware_stats()["sharding"]["shards"]  # docs/ingested per shard
    #     server.router.add_shard()   # re-rings and hands regions over
    #
    # See docs/ARCHITECTURE.md "Horizontal sharding".


if __name__ == "__main__":
    main()
