"""Producer revocation: keyfile section, hot reload, reaping, oracle-free.

Revocation is the ban hammer rotation cannot swing: deleting a
producer's key line stops *new* handshakes, but a compromised producer
holding an open session could keep streaming until the round closes.
The ``[revoked]`` keyfile section (and :meth:`KeyRegistry.revoke`)
bans the id outright: lookups return ``None`` even when a key line or
default key would apply, new handshakes fail byte-for-byte like a
wrong key (no enumeration oracle), and open sessions are reaped —
what they already staged commits, what they send next is refused.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.exceptions import AuthenticationError, ValidationError
from repro.pipeline import (
    CollectionService,
    KeyRegistry,
    ServiceSession,
    send_records,
)
from repro.pipeline.collect import wire

M = 16
SECRET = "0011223344556677"


def _chunk_frame(k=3, seed=0) -> bytes:
    rng = np.random.default_rng(seed)
    bits = (rng.random((k, M)) < 0.5).astype(np.uint8)
    return wire.dump_chunk(np.packbits(bits, axis=1), M, round_id=0)


def _write_keyfile(path, body: str) -> None:
    path.write_text(body, encoding="utf-8")


class TestKeyfileParsing:
    def test_revoked_section_parses_and_bans(self, tmp_path):
        keyfile = tmp_path / "keys.txt"
        _write_keyfile(
            keyfile,
            f"edge-1 = {SECRET}\nedge-2 = {SECRET}\n\n[revoked]\nedge-2\n",
        )
        registry = KeyRegistry.from_file(str(keyfile))
        assert registry.lookup("edge-1") is not None
        assert registry.lookup("edge-2") is None
        assert registry.is_revoked("edge-2")
        assert not registry.is_revoked("edge-1")

    def test_revocation_beats_the_default_key(self, tmp_path):
        keyfile = tmp_path / "keys.txt"
        _write_keyfile(
            keyfile, f"* = {SECRET}\n[revoked]\nbanned-node\n"
        )
        registry = KeyRegistry.from_file(str(keyfile))
        assert registry.lookup("anyone-else") is not None
        assert registry.lookup("banned-node") is None

    def test_optional_keys_header_is_byte_compatible(self, tmp_path):
        bare = tmp_path / "bare.txt"
        headed = tmp_path / "headed.txt"
        _write_keyfile(bare, f"edge-1 = {SECRET}\n")
        _write_keyfile(headed, f"[keys]\nedge-1 = {SECRET}\n")
        assert KeyRegistry.from_file(str(bare)).lookup(
            "edge-1"
        ) == KeyRegistry.from_file(str(headed)).lookup("edge-1")

    def test_unknown_section_is_loud(self, tmp_path):
        keyfile = tmp_path / "keys.txt"
        _write_keyfile(keyfile, f"edge-1 = {SECRET}\n[banhammer]\nedge-1\n")
        with pytest.raises(ValidationError, match="banhammer"):
            KeyRegistry.from_file(str(keyfile))

    def test_duplicate_revocation_is_loud(self, tmp_path):
        keyfile = tmp_path / "keys.txt"
        _write_keyfile(
            keyfile, f"edge-1 = {SECRET}\n[revoked]\nedge-9\nedge-9\n"
        )
        with pytest.raises(ValidationError, match="edge-9"):
            KeyRegistry.from_file(str(keyfile))

    def test_key_line_inside_revoked_section_is_loud(self, tmp_path):
        keyfile = tmp_path / "keys.txt"
        _write_keyfile(
            keyfile, f"[revoked]\nedge-1 = {SECRET}\n"
        )
        with pytest.raises(ValidationError):
            KeyRegistry.from_file(str(keyfile))


class TestHotReload:
    def test_editing_the_file_revokes_without_restart(self, tmp_path):
        keyfile = tmp_path / "keys.txt"
        _write_keyfile(keyfile, f"edge-1 = {SECRET}\n")
        registry = KeyRegistry.from_file(str(keyfile))
        assert registry.lookup("edge-1") is not None
        _write_keyfile(keyfile, f"edge-1 = {SECRET}\n[revoked]\nedge-1\n")
        assert registry.lookup("edge-1") is None

    def test_deleting_the_revocation_line_unbans(self, tmp_path):
        keyfile = tmp_path / "keys.txt"
        _write_keyfile(keyfile, f"edge-1 = {SECRET}\n[revoked]\nedge-1\n")
        registry = KeyRegistry.from_file(str(keyfile))
        assert registry.lookup("edge-1") is None
        _write_keyfile(keyfile, f"edge-1 = {SECRET}\n")
        assert registry.lookup("edge-1") is not None

    def test_programmatic_revoke(self):
        registry = KeyRegistry({"edge-1": SECRET})
        assert registry.lookup("edge-1") is not None
        registry.revoke("edge-1")
        assert registry.is_revoked("edge-1")
        assert registry.lookup("edge-1") is None


def _run(scenario, tmp_path, registry):
    async def main():
        service = CollectionService(
            rounds=[(M, 0)], keys=registry, store_root=str(tmp_path / "round")
        )
        host, port = await service.serve()
        try:
            result = await scenario(service, host, port)
        finally:
            await service.close()
        return service, result

    return asyncio.run(main())


class TestServiceRefusals:
    def _refusal_message(self, tmp_path, subdir, registry, producer, key):
        """The exact AuthenticationError a handshake refusal produces."""

        async def scenario(service, host, port):
            with pytest.raises(AuthenticationError) as info:
                await send_records(
                    host,
                    port,
                    [_chunk_frame()],
                    key=key,
                    producer_id=producer,
                    m=M,
                )
            return str(info.value)

        _, message = _run(scenario, tmp_path / subdir, registry)
        return message

    def test_revoked_refusal_is_indistinguishable(self, tmp_path):
        """Revoked, unknown, and wrong-key producers get the same error."""
        registry = KeyRegistry({"edge-1": SECRET, "edge-2": SECRET})
        registry.revoke("edge-2")
        revoked = self._refusal_message(
            tmp_path, "b", registry, "edge-2", SECRET
        )
        unknown = self._refusal_message(
            tmp_path,
            "c",
            KeyRegistry({"edge-1": SECRET}),
            "never-registered",
            SECRET,
        )
        wrong_key = self._refusal_message(
            tmp_path,
            "d",
            KeyRegistry({"edge-1": SECRET}),
            "edge-1",
            "totally-wrong-key",
        )
        assert revoked == unknown == wrong_key

    def test_revoked_producer_merges_nothing(self, tmp_path):
        registry = KeyRegistry({"edge-1": SECRET})
        registry.revoke("edge-1")

        async def scenario(service, host, port):
            with pytest.raises(AuthenticationError):
                await send_records(
                    host,
                    port,
                    [_chunk_frame()],
                    key=SECRET,
                    producer_id="edge-1",
                    m=M,
                )

        service, _ = _run(scenario, tmp_path, registry)
        assert service.round(0).accumulator.n == 0
        assert service.stats()["sessions_reaped_revoked"] == 0


class TestSessionReaping:
    def test_open_session_is_reaped_after_revocation(self, tmp_path):
        """Mid-session revocation: staged work commits, the next frame
        is refused, and the reap counter ticks."""
        registry = KeyRegistry({"edge-1": SECRET})

        async def scenario(service, host, port):
            session = ServiceSession(
                host, port, key=SECRET, producer_id="edge-1", m=M
            )
            await session.connect()
            ack = await session.send(_chunk_frame(), 0)
            assert ack.status == wire.ACK_MERGED
            registry.revoke("edge-1")
            refusal = await session.send(_chunk_frame(seed=1), 1)
            assert refusal.status == wire.ACK_REFUSED
            assert refusal.detail == "authentication failed"
            await session.close()

        service, _ = _run(scenario, tmp_path, registry)
        assert service.round(0).accumulator.n == 3  # the pre-revocation record
        assert service.stats()["sessions_reaped_revoked"] == 1

    def test_idle_revoked_session_is_reaped_by_the_poll(self, tmp_path):
        """A producer that goes silent after revocation is still dropped
        within the idle reap poll, not held to the idle timeout."""
        registry = KeyRegistry({"edge-1": SECRET})

        async def scenario(service, host, port):
            session = ServiceSession(
                host, port, key=SECRET, producer_id="edge-1", m=M
            )
            await session.connect()
            registry.revoke("edge-1")
            # Wait past the reap poll without sending anything; the
            # server must notice and close the connection from its end.
            refusal = await asyncio.wait_for(
                session.read_ack("reap"), timeout=5.0
            )
            assert refusal.status == wire.ACK_REFUSED
            assert refusal.detail == "authentication failed"
            await session.close()

        service, _ = _run(scenario, tmp_path, registry)
        assert service.stats()["sessions_reaped_revoked"] == 1
