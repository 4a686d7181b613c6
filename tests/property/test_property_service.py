"""Property-based tests for the key registry and multi-round router.

Two families of properties, both adversarially relevant:

* **Isolation**: for *any* set of hosted rounds and *any* interleaving
  of record submissions across rounds, producers, and connections
  (including duplicate and out-of-order submissions), every record
  lands in exactly the round its envelope names and in no other —
  each round's final counts equal the plain merge of exactly its own
  fresh records.  The router never cross-merges.
* **Authentication**: a PROOF computed with anything other than the
  producer's own registered key is always refused, for arbitrary
  producer populations, key assignments, and wrong-key choices
  (another producer's key, a perturbed key, the default key when an
  individual key exists).  And :class:`KeyRegistry` lookup/rotation
  semantics hold for arbitrary keyfiles.

The isolation property drives the real commit pipeline
(:class:`RoundRegistry` + :class:`GroupCommitScheduler` on disk) but
feeds it through the staging API directly rather than sockets, so
hypothesis can afford many examples; the socket path is pinned by the
behavioral and fault-injection suites.
"""

from __future__ import annotations

import asyncio
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pipeline import CountAccumulator, KeyRegistry, RoundRegistry, ShardStore
from repro.pipeline.collect import wire
from repro.pipeline.service import derive_producer_key, session_mac
from repro.pipeline.service.auth import verify_session_mac
from repro.pipeline.service.quotas import ServiceLimits

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

round_plans = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=24),  # m
        st.integers(min_value=-3, max_value=40),  # round_id
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda spec: spec[1],
)

# A submission plan: (round_index, producer_index, seq, payload_seed).
submission_plans = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2**16),
    ),
    min_size=1,
    max_size=24,
)


def _chunk_frame(m: int, round_id: int, seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    bits = (rng.random((k, m)) < 0.5).astype(np.uint8)
    return wire.dump_chunk(np.packbits(bits, axis=1), m, round_id=round_id)


class TestRouterNeverCrossMerges:
    @SETTINGS
    @given(rounds=round_plans, plan=submission_plans)
    def test_interleaved_submissions_stay_in_their_round(self, rounds, plan):
        with tempfile.TemporaryDirectory() as root:
            store = ShardStore(root)
            limits = ServiceLimits()
            registry = RoundRegistry()
            states = [
                registry.open_round(
                    m,
                    round_id,
                    store.namespaced(f"round_{index}"),
                    limits,
                )
                for index, (m, round_id) in enumerate(rounds)
            ]

            # Expected per-round state: merge exactly the records whose
            # (producer, seq) is fresh for that round, in plan order.
            expected = {
                state.round_id: CountAccumulator(
                    state.m, round_id=state.round_id
                )
                for state in states
            }
            first_payload: dict[tuple[int, str, int], bytes] = {}

            async def drive() -> None:
                for round_index, producer_index, seq, seed in plan:
                    state = states[round_index % len(states)]
                    producer = f"producer-{producer_index}"
                    key = (state.round_id, producer, seq)
                    frame = first_payload.setdefault(
                        key, _chunk_frame(state.m, state.round_id, seed)
                    )
                    record = wire.Record(
                        m=state.m,
                        round_id=state.round_id,
                        seq=seq,
                        frame=frame,
                    )
                    staged = state.stage_record(producer, record, {})
                    assert staged["status"] in ("fresh", "verify-dup")
                    if staged["status"] == "fresh":
                        expected[state.round_id].add_packed_reports(
                            wire.loads(frame).rows
                        )
                    await state.scheduler.submit(producer, [staged])
                    assert staged["status"] in ("merged", "duplicate")
                for state in states:
                    await state.close(snapshot=True)

            asyncio.run(drive())

            for state in states:
                # In-memory: the round holds exactly its own records.
                assert (
                    state.accumulator.digest()
                    == expected[state.round_id].digest()
                )
                # And so does its durable state, independently replayed.
                if state.records_merged:
                    replayed = state.store.replay_shard(0)
                    assert np.array_equal(
                        replayed.counts(),
                        expected[state.round_id].counts(),
                    )

    @SETTINGS
    @given(rounds=round_plans)
    def test_round_tokens_are_unique_per_registration(self, rounds):
        with tempfile.TemporaryDirectory() as root:
            store = ShardStore(root)
            registry = RoundRegistry()
            states = [
                registry.open_round(
                    m,
                    round_id,
                    store.namespaced(f"round_{index}"),
                    ServiceLimits(),
                )
                for index, (m, round_id) in enumerate(rounds)
            ]
            tokens = [state.token for state in states]
            assert len(set(tokens)) == len(tokens)
            assert all(len(token) == 16 for token in tokens)

            async def teardown():
                for state in states:
                    await state.close(snapshot=False)

            asyncio.run(teardown())


producer_ids = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_characters="=\n\r#* ", exclude_categories=("C",)
    ),
    min_size=1,
    max_size=12,
).map(str.strip).filter(bool)


class TestPerProducerKeys:
    @SETTINGS
    @given(
        producers=st.lists(producer_ids, min_size=2, max_size=5, unique=True),
        master=st.binary(min_size=8, max_size=32),
        victim=st.integers(min_value=0, max_value=4),
        thief=st.integers(min_value=0, max_value=4),
        geometry=st.tuples(
            st.integers(min_value=1, max_value=64),
            st.integers(min_value=-5, max_value=5),
        ),
    )
    def test_wrong_per_producer_key_proof_is_always_refused(
        self, producers, master, victim, thief, geometry
    ):
        """A proof for producer V minted with any key other than V's own
        never verifies — including every other producer's key and the
        registry default."""
        m, round_id = geometry
        registry = KeyRegistry(
            {p: derive_producer_key(master, p) for p in producers},
            default_key=b"default-key-0123",
        )
        victim_id = producers[victim % len(producers)]
        thief_id = producers[thief % len(producers)]
        client_nonce, server_nonce = os.urandom(16), os.urandom(16)
        token = os.urandom(16)

        right_key = registry.lookup(victim_id)
        assert right_key == derive_producer_key(master, victim_id)
        good = session_mac(
            right_key,
            m=m,
            round_id=round_id,
            producer_id=victim_id,
            client_nonce=client_nonce,
            server_nonce=server_nonce,
            round_token=token,
        )
        assert verify_session_mac(
            right_key,
            good,
            m=m,
            round_id=round_id,
            producer_id=victim_id,
            client_nonce=client_nonce,
            server_nonce=server_nonce,
            round_token=token,
        )

        wrong_keys = [b"default-key-0123", bytes(right_key)[::-1] + b"x"]
        if thief_id != victim_id:
            wrong_keys.append(registry.lookup(thief_id))
        for wrong in wrong_keys:
            forged = session_mac(
                wrong,
                m=m,
                round_id=round_id,
                producer_id=victim_id,
                client_nonce=client_nonce,
                server_nonce=server_nonce,
                round_token=token,
            )
            assert not verify_session_mac(
                right_key,
                forged,
                m=m,
                round_id=round_id,
                producer_id=victim_id,
                client_nonce=client_nonce,
                server_nonce=server_nonce,
                round_token=token,
            )
        # A proof for the right key but the wrong round token is dead too.
        stale = session_mac(
            right_key,
            m=m,
            round_id=round_id,
            producer_id=victim_id,
            client_nonce=client_nonce,
            server_nonce=server_nonce,
            round_token=os.urandom(16),
        )
        assert not verify_session_mac(
            right_key,
            stale,
            m=m,
            round_id=round_id,
            producer_id=victim_id,
            client_nonce=client_nonce,
            server_nonce=server_nonce,
            round_token=token,
        )

    @SETTINGS
    @given(
        entries=st.dictionaries(
            producer_ids,
            st.binary(min_size=8, max_size=24),
            min_size=1,
            max_size=5,
        ),
        rotated=st.binary(min_size=8, max_size=24),
    )
    def test_keyfile_roundtrip_and_rotation(self, entries, rotated):
        """Writing a keyfile, loading it, rotating one line, and looking
        up again always reflects the file — the hot-reload contract."""
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "keys.txt")
            lines = [
                f"{producer} = {secret.hex()}"
                for producer, secret in entries.items()
            ]
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
            registry = KeyRegistry.from_file(path)
            for producer, secret in entries.items():
                assert registry.lookup(producer) == secret
            assert registry.lookup("never-registered-producer") is None

            target = sorted(entries)[0]
            rewritten = [
                f"{producer} = "
                f"{rotated.hex() if producer == target else secret.hex()}"
                for producer, secret in entries.items()
            ]
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(rewritten) + "\n")
            os.utime(path, ns=(1, 1))  # force a visible stamp change
            assert registry.lookup(target) == rotated
            for producer, secret in entries.items():
                if producer != target:
                    assert registry.lookup(producer) == secret
