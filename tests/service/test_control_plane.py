"""The authenticated control plane: verbs, MACs, and per-round limits.

Control operations (status / drain / close-round / retire-round /
open-round / pull-state / route-table / route-update) ride version-4
wire frames, MAC'd under the fleet's control key with the requester's
nonce echoed in the MAC'd reply — a recorded reply can never answer a
later request.  These tests drive every verb against a live service,
pin the refusal paths (wrong key, no control plane, unknown op,
un-hosted round), and cover the per-round :class:`ServiceLimits`
override surface end to end: validation errors must name the offending
round.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.exceptions import ControlError, ValidationError
from repro.pipeline import CollectionService, ServiceLimits, send_records
from repro.pipeline.collect import wire
from repro.pipeline.service import control_call
from repro.pipeline.service.auth import (
    control_reply_mac,
    control_request_mac,
    derive_round_key,
    verify_control_reply_mac,
    verify_control_request_mac,
)

M = 16
KEY = "0011223344556677"
CONTROL_KEY = "fleet-control-secret"


def _chunk_frame(k=4, seed=0, m=M, round_id=0) -> bytes:
    rng = np.random.default_rng(seed)
    bits = (rng.random((k, m)) < 0.5).astype(np.uint8)
    return wire.dump_chunk(np.packbits(bits, axis=1), m, round_id=round_id)


def _run(scenario, tmp_path, **service_kwargs):
    async def main():
        service = CollectionService(
            rounds=[(M, 0)],
            key=KEY,
            store_root=str(tmp_path / "round"),
            control_key=CONTROL_KEY,
            **service_kwargs,
        )
        host, port = await service.serve()
        try:
            result = await scenario(service, host, port)
        finally:
            await service.close()
        return service, result

    return asyncio.run(main())


class TestControlMacs:
    REQUEST = dict(
        op="drain", nonce=bytes(range(16)), body={"round_id": 2}
    )
    KEYB = derive_round_key(CONTROL_KEY)

    def test_request_mac_round_trips(self):
        mac = control_request_mac(self.KEYB, **self.REQUEST)
        assert verify_control_request_mac(self.KEYB, mac, **self.REQUEST)

    def test_reply_mac_is_role_separated(self):
        """A request MAC must never verify as a reply MAC — captured
        request frames cannot be replayed as authenticated answers."""
        request_mac = control_request_mac(self.KEYB, **self.REQUEST)
        assert not verify_control_reply_mac(
            self.KEYB,
            request_mac,
            status=wire.CONTROL_OK,
            nonce=self.REQUEST["nonce"],
            body=self.REQUEST["body"],
            attachment=b"",
        )

    def test_reply_mac_binds_the_attachment(self):
        mac = control_reply_mac(
            self.KEYB,
            status=wire.CONTROL_OK,
            nonce=bytes(16),
            body={},
            attachment=b"snapshot-bytes",
        )
        assert not verify_control_reply_mac(
            self.KEYB,
            mac,
            status=wire.CONTROL_OK,
            nonce=bytes(16),
            body={},
            attachment=b"tampered-bytes",
        )

    def test_body_key_order_is_irrelevant(self):
        mac = control_request_mac(
            self.KEYB, op="status", nonce=bytes(16), body={"a": 1, "b": 2}
        )
        assert verify_control_request_mac(
            self.KEYB, mac, op="status", nonce=bytes(16), body={"b": 2, "a": 1}
        )


class TestControlVerbs:
    def test_status_reports_service_and_round(self, tmp_path):
        async def scenario(service, host, port):
            stats, _ = await control_call(
                host, port, key=CONTROL_KEY, op="status"
            )
            round_stats, _ = await control_call(
                host, port, key=CONTROL_KEY, op="status", body={"round_id": 0}
            )
            return stats, round_stats

        _, (stats, round_stats) = _run(scenario, tmp_path)
        assert stats["records_merged"] == 0
        assert round_stats["phase"] == "serving"
        assert round_stats["m"] == M

    def test_drain_close_retire_drive_the_lifecycle(self, tmp_path):
        async def scenario(service, host, port):
            phases = []
            for op in ("drain", "close-round", "retire-round"):
                body, _ = await control_call(
                    host, port, key=CONTROL_KEY, op=op, body={"round_id": 0}
                )
                phases.append(body.get("phase"))
            return phases

        service, phases = _run(scenario, tmp_path)
        assert phases == ["draining", "closed", "retired"]
        assert service.registry.get(0) is None

    def test_drained_round_refuses_sessions(self, tmp_path):
        from repro.exceptions import AuthenticationError

        async def scenario(service, host, port):
            await control_call(
                host, port, key=CONTROL_KEY, op="drain", body={"round_id": 0}
            )
            with pytest.raises(AuthenticationError, match="draining"):
                await send_records(
                    host,
                    port,
                    [_chunk_frame()],
                    key=KEY,
                    producer_id="late-producer",
                    m=M,
                )

        _run(scenario, tmp_path)

    def test_pull_state_ships_a_digest_verified_snapshot(self, tmp_path):
        async def scenario(service, host, port):
            await send_records(
                host,
                port,
                [_chunk_frame()],
                key=KEY,
                producer_id="edge-1",
                m=M,
            )
            body, attachment = await control_call(
                host, port, key=CONTROL_KEY, op="pull-state",
                body={"round_id": 0},
            )
            pulled = wire.loads(attachment)
            assert isinstance(pulled, type(service.round(0).accumulator))
            assert pulled.digest() == body["digest"]
            assert pulled.digest() == service.round(0).accumulator.digest()
            assert body["records_merged"] == 1

        _run(scenario, tmp_path)

    def test_open_round_registers_a_new_round(self, tmp_path):
        async def scenario(service, host, port):
            token = bytes(range(16)).hex()
            body, _ = await control_call(
                host, port, key=CONTROL_KEY, op="open-round",
                body={"m": 32, "round_id": 9, "token": token},
            )
            assert body["phase"] == "serving"
            assert service.registry.get(9).m == 32
            assert service.registry.get(9).token == bytes(range(16))

        _run(scenario, tmp_path)

    def test_route_update_and_route_table_round_trip(self, tmp_path):
        from repro.pipeline.service import RoutingTable, ShardInfo

        async def scenario(service, host, port):
            table = RoutingTable(
                [ShardInfo("alpha", "127.0.0.1", 7001)], epoch=5
            )
            await control_call(
                host, port, key=CONTROL_KEY, op="route-update",
                body={"table": table.to_payload()},
            )
            body, _ = await control_call(
                host, port, key=CONTROL_KEY, op="route-table"
            )
            clone = RoutingTable.from_payload(body["table"])
            assert clone.epoch == 5 and clone.names() == ["alpha"]
            # Anti-rollback: an older epoch is refused.
            with pytest.raises(ControlError, match="epoch"):
                await control_call(
                    host, port, key=CONTROL_KEY, op="route-update",
                    body={"table": RoutingTable(
                        [ShardInfo("alpha", "127.0.0.1", 7001)], epoch=4
                    ).to_payload()},
                )

        _run(scenario, tmp_path)


class TestRoutedTableRefresh:
    """A routed sender holding a stale table mid-rebalance: with the
    control key it refreshes via ``route-table`` instead of failing."""

    def _services(self, tmp_path):
        alpha = CollectionService(
            rounds=[(M, 1)],
            key=KEY,
            store_root=str(tmp_path / "alpha"),
            control_key=CONTROL_KEY,
            shard_name="alpha",
        )
        beta = CollectionService(
            rounds=[(M, 1)],
            key=KEY,
            store_root=str(tmp_path / "beta"),
            control_key=CONTROL_KEY,
            shard_name="beta",
        )
        return alpha, beta

    def test_dead_owner_address_refreshes_and_lands(self, tmp_path):
        """Mid-rebalance a shard was re-addressed; the stale table's
        owner address is dead.  Regression: the routed sender used to
        retry the same table and surface the connection error — now one
        ``route-table`` refresh finds the live address."""
        from repro.pipeline.service import RoutingTable, ShardInfo
        from repro.pipeline.service.client import send_records_routed

        async def main():
            alpha, beta = self._services(tmp_path)
            ha, pa = await alpha.serve()
            hb, pb = await beta.serve()
            try:
                # Find a port nobody is listening on for the stale entry.
                import socket

                probe = socket.socket()
                probe.bind(("127.0.0.1", 0))
                dead_port = probe.getsockname()[1]
                probe.close()

                stale = RoutingTable(
                    [
                        ShardInfo("alpha", ha, pa),
                        ShardInfo("beta", hb, dead_port),
                    ],
                    epoch=1,
                )
                fresh = RoutingTable(
                    [
                        ShardInfo("alpha", ha, pa),
                        ShardInfo("beta", hb, pb),
                    ],
                    epoch=2,
                )
                alpha.install_routing(fresh)
                beta.install_routing(fresh)
                producer = next(
                    f"p-{i}"
                    for i in range(200)
                    if fresh.owner(f"p-{i}").name == "beta"
                )
                frames = [_chunk_frame(seed=7, round_id=1)]

                # Without the control key the dead address stays fatal.
                with pytest.raises((ConnectionError, OSError)):
                    await send_records_routed(
                        stale,
                        frames,
                        key=KEY,
                        producer_id=producer,
                        m=M,
                        round_id=1,
                    )

                acks = await send_records_routed(
                    stale,
                    frames,
                    key=KEY,
                    producer_id=producer,
                    m=M,
                    round_id=1,
                    control_key=CONTROL_KEY,
                )
                assert [a.status for a in acks] == [wire.ACK_MERGED]
                assert beta.records_merged == 1
            finally:
                await alpha.close()
                await beta.close()

        asyncio.run(main())

    def test_refresh_helper_picks_the_newest_epoch(self, tmp_path):
        """Mid-rebalance the shards legitimately disagree; the refresh
        must trust the maximum epoch, not the first answer."""
        from repro.pipeline.service import RoutingTable, ShardInfo
        from repro.pipeline.service.client import refresh_routing_table

        async def main():
            alpha, beta = self._services(tmp_path)
            ha, pa = await alpha.serve()
            hb, pb = await beta.serve()
            try:
                a_info = ShardInfo("alpha", ha, pa)
                b_info = ShardInfo("beta", hb, pb)
                stale = RoutingTable([a_info, b_info], epoch=1)
                alpha.install_routing(RoutingTable([a_info, b_info], epoch=2))
                beta.install_routing(RoutingTable([a_info, b_info], epoch=5))

                fresh = await refresh_routing_table(
                    stale, control_key=CONTROL_KEY
                )
                assert fresh is not None and fresh.epoch == 5

                # Already-newest tables find nothing newer.
                assert (
                    await refresh_routing_table(
                        RoutingTable([a_info, b_info], epoch=9),
                        control_key=CONTROL_KEY,
                    )
                    is None
                )
            finally:
                await alpha.close()
                await beta.close()

        asyncio.run(main())


class TestControlRefusals:
    def test_wrong_control_key_is_refused(self, tmp_path):
        async def scenario(service, host, port):
            with pytest.raises(ControlError):
                await control_call(
                    host, port, key="wrong-control-key", op="status"
                )

        service, _ = _run(scenario, tmp_path)
        assert service.records_merged == 0

    def test_service_without_control_plane_refuses(self, tmp_path):
        async def main():
            service = CollectionService(
                rounds=[(M, 0)], key=KEY, store_root=str(tmp_path / "plain")
            )
            host, port = await service.serve()
            try:
                with pytest.raises(ControlError, match="not enabled"):
                    await control_call(
                        host, port, key=CONTROL_KEY, op="status"
                    )
            finally:
                await service.close()

        asyncio.run(main())

    def test_unknown_op_names_the_vocabulary(self, tmp_path):
        async def scenario(service, host, port):
            with pytest.raises(ControlError, match="self-destruct"):
                await control_call(
                    host, port, key=CONTROL_KEY, op="self-destruct"
                )

        _run(scenario, tmp_path)

    def test_unhosted_round_is_a_loud_error_reply(self, tmp_path):
        async def scenario(service, host, port):
            with pytest.raises(ControlError, match="99"):
                await control_call(
                    host, port, key=CONTROL_KEY, op="drain",
                    body={"round_id": 99},
                )

        _run(scenario, tmp_path)


class TestServiceLimitsOverrides:
    def test_overrides_replace_named_fields_only(self):
        limits = ServiceLimits()
        tuned = limits.with_overrides({"max_sessions": 3})
        assert tuned.max_sessions == 3
        assert tuned.max_frame_bytes == limits.max_frame_bytes

    def test_unknown_field_is_loud(self):
        with pytest.raises(ValueError, match="no_such_knob"):
            ServiceLimits().with_overrides({"no_such_knob": 1})

    def test_bad_value_is_revalidated(self):
        with pytest.raises((ValidationError, ValueError)):
            ServiceLimits().with_overrides({"max_sessions": 0})

    def test_add_round_error_names_the_round(self, tmp_path):
        async def main():
            service = CollectionService(
                rounds=[{"m": M, "round_id": 0}],
                key=KEY,
                store_root=str(tmp_path / "svc"),
                control_key=CONTROL_KEY,
            )
            try:
                with pytest.raises(
                    ValidationError, match=r"round 7: invalid limits override"
                ):
                    service.add_round(M, 7, limits={"bogus_field": 1})
            finally:
                await service.close()

        asyncio.run(main())

    def test_open_round_op_applies_overrides(self, tmp_path):
        async def scenario(service, host, port):
            await control_call(
                host, port, key=CONTROL_KEY, op="open-round",
                body={
                    "m": M,
                    "round_id": 3,
                    "limits": {"max_producer_bytes": 1024},
                },
            )
            assert service.registry.get(3).limits.max_producer_bytes == 1024
            with pytest.raises(ControlError, match="round 4"):
                await control_call(
                    host, port, key=CONTROL_KEY, op="open-round",
                    body={"m": M, "round_id": 4, "limits": {"nope": 1}},
                )

        _run(scenario, tmp_path)
