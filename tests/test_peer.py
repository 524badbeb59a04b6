"""Gossip protocol unit tests: wire format, incentives, discipline, leader."""

import numpy as np
import pytest

from conftest import tamper
from gossipseg.aggregation import TrimConfig, is_trim_feasible, plain_mean, trimmed_mean
from gossipseg.cas import BlockStore, Cid
from gossipseg.config import DataConfig, RunConfig
from gossipseg.datasets import LabeledDataset, synthetic_blobs
from gossipseg.errors import IntegrityError, LedgerError, NotFoundError, SerializationError
from gossipseg.ledger import Ledger
from gossipseg.model import (
    canonical_bytes,
    gather,
    mask_to_segment,
    params_from_bytes,
    segment_boundaries,
    segment_coords,
)
from gossipseg.peer import (
    NEUTRAL,
    PENALTY,
    REWARD,
    Peer,
    RunContext,
    decode_update,
    encode_update,
    global_tag,
    incentive_check,
    leader_duty,
    local_steps,
    publish_global,
    round_tag,
)
from gossipseg.privacy import DpConfig
from gossipseg.trainer import TrainConfig, evaluate, gradient, init_params, sgd_step


def build_ctx(tmp_path, num_peers=2, num_clusters=2, fanout=1, trim_ratio=0.0,
              byzantine=(), sigma=0.0, clip=1e9, tolerance=100.0):
    cfg = RunConfig(
        num_peers=num_peers,
        num_clusters=num_clusters,
        fanout=fanout,
        trim=TrimConfig(trim_ratio=trim_ratio),
        dp=DpConfig(clip_norm=clip, sigma_max=sigma, sigma_min=sigma, total_rounds=10),
        byzantine_peers=tuple(byzantine),
        penalty_loss_delta=tolerance,
        data=DataConfig(num_classes=4, samples_per_class=30, test_per_class=5, input_dim=4),
        train=TrainConfig(batch_size=16),
        out_dir=str(tmp_path),
    )
    ledger = Ledger(initial_tokens=cfg.initial_tokens)
    ledger.deploy_contracts()
    for pid in range(num_peers):
        ledger.register(pid, f"cred-{pid}")
    store = BlockStore(tmp_path / "cas")
    data = synthetic_blobs(4, 30, 4, np.random.default_rng(0))
    specs = segment_boundaries(4, num_clusters)
    base = init_params(4, 6, 4, np.random.default_rng(1))
    peers = {}
    for pid in range(num_peers):
        cluster = pid % num_clusters
        peers[pid] = Peer(
            peer_id=pid,
            segment=specs[cluster],
            params=base.copy(),
            baseline=base.copy(),
            train=data,
            shard=np.arange(len(data.labels)),
            rng=np.random.default_rng(100 + pid),
        )
    return RunContext(
        cfg=cfg,
        ledger=ledger,
        store=store,
        peers=peers,
        global_params=base.copy(),
        global_round=0,
    )


def iterate(peer, ctx):
    [(trained, own_loss)] = local_steps([peer], ctx.cfg.train)
    return peer.peer_iteration(ctx, trained, own_loss)


def published_cid(ctx, pid):
    """The cid ``pid`` recorded in the current round."""
    return ctx.ledger.hash_records(round_tag(ctx.global_round), {pid})[pid]


def same_params(a, b):
    return canonical_bytes(a) == canonical_bytes(b)


def local_delta(peer):
    delta = peer.params.with_buf(peer.params.buf - peer.baseline.buf)
    return mask_to_segment(delta, peer.segment)


def penalize_rows(ledger):
    if ledger.pending_count():
        ledger.seal_block(999)
    return [
        line for line in ledger.dump_text().splitlines()[1:]
        if line.split("\t")[1] == "penalize"
    ]


def test_round_tags():
    assert round_tag(0) == "r0"
    assert round_tag(17) == "r17"
    assert global_tag(3) == "g3"


def test_update_wire_roundtrip(rng):
    delta = init_params(4, 6, 4, rng)
    buf = encode_update(delta, 7, 3, 1, 0.875)
    assert buf.startswith(b"GSU1")
    back = decode_update(buf)
    assert back.round_index == 7
    assert back.sender == 3
    assert back.cluster_id == 1
    assert back.claimed_loss == 0.875
    assert same_params(back.delta, delta)


def test_update_wire_rejects_garbage(rng):
    delta = init_params(4, 6, 4, rng)
    good = encode_update(delta, 0, 0, 0, 0.0)
    with pytest.raises(SerializationError):
        decode_update(b"XXXX" + good[4:])
    with pytest.raises(SerializationError):
        decode_update(good[:10])
    wrong_version = good[:4] + b"\x63\x00" + good[6:]
    with pytest.raises(SerializationError):
        decode_update(wrong_version)


def test_incentive_check_frozen_cases():
    assert incentive_check(1.0, 0.4, 0.5) == REWARD
    assert incentive_check(1.0, 1.6, 0.5) == PENALTY
    assert incentive_check(1.0, 1.2, 0.5) == NEUTRAL
    assert incentive_check(1.0, 1.0, 0.5) == NEUTRAL  # equal is not an improvement
    assert incentive_check(1.0, 1.5, 0.5) == NEUTRAL  # delta exactly at tolerance


def test_privatize_identity_inside_ball(tmp_path):
    ctx = build_ctx(tmp_path, sigma=0.0, clip=1e9)
    peer = ctx.peers[0]
    perturbed = peer.params.copy()
    perturbed.last_layer_weights[peer.segment.rows()] += 0.01
    perturbed.lower_layers[0][...] += 0.02
    owned = segment_coords(peer.params, peer.segment).owned
    delta = gather(perturbed.buf, owned) - gather(peer.baseline.buf, owned)
    private = peer._privatize(ctx, delta)
    assert private.tobytes() == delta.tobytes()


def test_privatize_noise_confined_to_owned_coordinates(tmp_path):
    ctx = build_ctx(tmp_path, sigma=0.5, clip=1.0)
    peer = ctx.peers[0]
    assert iterate(peer, ctx)
    flat = decode_update(ctx.store.get(published_cid(ctx, peer.peer_id))).delta.buf
    coords = segment_coords(peer.params, peer.segment)
    assert not gather(flat, coords.foreign).any()
    assert gather(flat, coords.owned).all()  # gaussian draws are nonzero a.s.


def test_hostile_delta_saturates_owned_coordinates(tmp_path):
    ctx = build_ctx(tmp_path, byzantine=(0,))
    peer = ctx.peers[0]
    hostile = peer._hostile_delta(ctx, 40)
    assert hostile.shape == (40,)
    assert set(np.unique(np.abs(hostile))) == {ctx.cfg.byzantine_scale}


def test_publish_records_hash_once(tmp_path):
    ctx = build_ctx(tmp_path)
    peer = ctx.peers[0]
    payload = encode_update(local_delta(peer), 0, 0, 0, 0.0)
    cid1 = peer._publish(ctx, payload)
    cid2 = peer._publish(ctx, payload)  # same bytes: dedup, no replay error
    assert cid1 == cid2
    assert ctx.ledger.hash_records(round_tag="r0", peers={0}) == {0: cid1}
    assert ctx.ledger.has_hash_record(0, cid1, "r0")


def test_iteration_keeps_foreign_rows_bitwise(tmp_path):
    ctx = build_ctx(tmp_path, num_peers=4, num_clusters=2, fanout=2)
    for _ in range(3):
        for pid in range(4):
            assert iterate(ctx.peers[pid], ctx)
    assert ctx.segment_violations == 0
    for peer in ctx.peers.values():
        foreign = np.ones(peer.params.num_output_units, dtype=bool)
        foreign[peer.segment.rows()] = False
        assert (
            peer.params.last_layer_weights[foreign].tobytes()
            == peer.baseline.last_layer_weights[foreign].tobytes()
        )
        assert (
            peer.params.last_layer_bias[foreign].tobytes()
            == peer.baseline.last_layer_bias[foreign].tobytes()
        )
        # owned rows did move
        assert not np.array_equal(
            peer.params.last_layer_weights[peer.segment.rows()],
            peer.baseline.last_layer_weights[peer.segment.rows()],
        )
        assert peer.iteration == 3


def test_gossip_consumption_is_logged(tmp_path):
    ctx = build_ctx(tmp_path, num_peers=2, num_clusters=1, fanout=1)
    assert iterate(ctx.peers[0], ctx)
    assert iterate(ctx.peers[1], ctx)
    # peer 1 moved second, so peer 0's update was available to it
    consumers = {c for c, _, _ in ctx.consumed_log}
    assert 1 in consumers
    senders = {s for _, s, _ in ctx.consumed_log}
    assert 0 in senders


def test_tampered_update_flagged_and_penalized_once(tmp_path):
    ctx = build_ctx(tmp_path, num_peers=2, num_clusters=1, fanout=1)
    sender, consumer = ctx.peers[0], ctx.peers[1]
    assert iterate(sender, ctx)
    cid = published_cid(ctx, 0)
    tamper(ctx.store, cid, -1, 0x01)

    balance_before = ctx.ledger.balance(0)
    assert consumer._pull(ctx, 0, cid) is None
    assert cid.hex in ctx.quarantined
    assert ctx.integrity_alarms == 1
    # the second consumer hitting the same cid must not double-charge
    assert sender._pull(ctx, 0, cid) is None
    assert ctx.integrity_alarms == 1
    assert ctx.ledger.balance(0) == balance_before - ctx.cfg.penalty_amount
    assert len(penalize_rows(ctx.ledger)) == 1


def test_unrecorded_cid_fails_validation(tmp_path):
    ctx = build_ctx(tmp_path, num_peers=2, num_clusters=1, fanout=1)
    rogue = ctx.store.put(b"not registered on the ledger")
    assert ctx.peers[1]._pull(ctx, 0, rogue) is None
    assert rogue.hex in ctx.quarantined
    assert len(penalize_rows(ctx.ledger)) == 1


def test_quarantined_update_never_enters_aggregation(tmp_path):
    ctx = build_ctx(tmp_path, num_peers=2, num_clusters=1, fanout=1)
    sender, consumer = ctx.peers[0], ctx.peers[1]
    assert iterate(sender, ctx)
    cid = published_cid(ctx, 0)
    ctx.quarantined.add(cid.hex)
    consumed_before = len(ctx.consumed_log)
    assert iterate(consumer, ctx)
    assert all(log_cid != cid.hex for _, _, log_cid in ctx.consumed_log[consumed_before:])


def test_ledger_rejection_rolls_back_peer_state(tmp_path, monkeypatch):
    ctx = build_ctx(tmp_path)
    peer = ctx.peers[0]
    before_params = peer.params.copy()
    before_iter = peer.iteration

    def refuse(*args, **kwargs):
        raise LedgerError("synthetic rejection")

    monkeypatch.setattr(ctx.ledger, "save_hash", refuse)
    assert iterate(peer, ctx) is False
    assert same_params(peer.params, before_params)
    assert peer.iteration == before_iter
    assert ctx.aborted_iterations == 1


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_own_delta_aborts_before_publishing(tmp_path, value):
    ctx = build_ctx(tmp_path)
    peer = ctx.peers[0]
    [(trained, own_loss)] = local_steps([peer], ctx.cfg.train)
    owned = segment_coords(trained, peer.segment).owned
    trained.buf[owned[-1].stop - 1] = value
    before_params, before_iter = peer.params.copy(), peer.iteration
    pending = ctx.ledger.pending_count()
    assert peer.peer_iteration(ctx, trained, own_loss) is False
    assert ctx.aborted_iterations == 1
    assert same_params(peer.params, before_params)
    assert peer.iteration == before_iter
    # nothing was published or recorded
    assert ctx.ledger.pending_count() == pending
    assert ctx.ledger.hash_records(round_tag(ctx.global_round), {0}) == {}


def test_rejection_after_publish_restores_only_peer_fields(tmp_path, monkeypatch):
    ctx = build_ctx(tmp_path, num_peers=2, num_clusters=1, fanout=1)
    assert iterate(ctx.peers[0], ctx)
    peer = ctx.peers[1]
    before_params = peer.params.copy()
    before_rng = peer.rng.bit_generator.state

    def refuse(*args, **kwargs):
        raise LedgerError("synthetic rejection")

    # peer 1 publishes, then pulls peer 0's update and is refused validation
    monkeypatch.setattr(ctx.ledger, "validate_update", refuse)
    assert iterate(peer, ctx) is False
    assert same_params(peer.params, before_params)
    assert peer.iteration == 0
    assert ctx.aborted_iterations == 1
    # what the iteration did before the rejection stays
    records = ctx.ledger.hash_records(round_tag="r0", peers={1})
    assert len(records) == 1
    assert ctx.store.get(records[1])
    assert peer.rng.bit_generator.state != before_rng


@pytest.mark.parametrize("failures, published", [(1, True), (2, False)])
def test_publish_retries_a_store_failure_once(tmp_path, monkeypatch, failures, published):
    ctx = build_ctx(tmp_path)
    peer = ctx.peers[0]
    real_put = ctx.store.put
    attempts = []

    def flaky_put(content):
        attempts.append(content)
        if len(attempts) <= failures:
            raise OSError("synthetic write failure")
        return real_put(content)

    monkeypatch.setattr(ctx.store, "put", flaky_put)
    assert iterate(peer, ctx)
    assert peer.iteration == 1
    assert len(attempts) == 2
    records = ctx.ledger.hash_records(round_tag="r0", peers={0})
    if published:
        assert records == {0: real_put(attempts[-1])}
    else:
        assert records == {}
    

def test_sync_failure_keeps_local_state(tmp_path):
    ctx = build_ctx(tmp_path)
    peer = ctx.peers[0]
    ctx.global_cid = Cid(b"\x42" * 32)  # nothing stored under this cid
    ctx.global_round = 1
    before = peer.params.copy()
    assert peer.sync_global(ctx) is False
    assert ctx.integrity_alarms == 1
    assert same_params(peer.params, before)
    assert peer.synced_round == -1


def test_leader_duty_matches_manual_reconstruction(tmp_path):
    ctx = build_ctx(tmp_path, num_peers=2, num_clusters=2, fanout=0)
    assert iterate(ctx.peers[0], ctx)
    assert iterate(ctx.peers[1], ctx)
    base = ctx.global_params.copy()

    new_cid = leader_duty(ctx.peers[0], ctx)
    assert new_cid is not None
    theta = params_from_bytes(ctx.store.get(new_cid))

    # oracle: replay the combination from the published wire bytes
    deltas = {}
    flats = []
    for cid in ctx.ledger.hash_records(round_tag="r0").values():
        update = decode_update(ctx.store.get(cid))
        spec = ctx.segment_specs[ctx.peers[update.sender].segment.cluster_id]
        masked = mask_to_segment(update.delta, spec)
        deltas[update.sender] = masked
        flats.append(masked.buf)
    lower_mean = base.with_buf(plain_mean(flats))

    for cluster_id, spec in ctx.segment_specs.items():
        member_delta = deltas[cluster_id]  # peer id == cluster id here
        rows = spec.rows()
        assert np.array_equal(
            theta.last_layer_weights[rows],
            base.last_layer_weights[rows] + member_delta.last_layer_weights[rows],
        )
        assert np.array_equal(
            theta.last_layer_bias[rows],
            base.last_layer_bias[rows] + member_delta.last_layer_bias[rows],
        )
    for got, b, d in zip(theta.lower_layers, base.lower_layers, lower_mean.lower_layers):
        assert np.array_equal(got, b + d)

    assert ctx.global_round == 1
    assert ctx.global_cid == new_cid
    assert ctx.ledger.hash_records(round_tag="g1") == {0: new_cid}


def test_leader_duty_carries_over_silent_segments(tmp_path):
    ctx = build_ctx(tmp_path, num_peers=2, num_clusters=2, fanout=0)
    assert iterate(ctx.peers[0], ctx)  # only cluster 0 publishes
    base = ctx.global_params.copy()
    cid = leader_duty(ctx.peers[0], ctx)
    theta = params_from_bytes(ctx.store.get(cid))
    silent = ctx.segment_specs[1].rows()
    assert np.array_equal(theta.last_layer_weights[silent], base.last_layer_weights[silent])
    assert np.array_equal(theta.last_layer_bias[silent], base.last_layer_bias[silent])
    assert ctx.segment_carryovers == 1


def test_byzantine_peer_publishes_saturated_update(tmp_path):
    ctx = build_ctx(tmp_path, num_peers=2, num_clusters=1, fanout=1, byzantine=(0,))
    assert iterate(ctx.peers[0], ctx)
    update = decode_update(ctx.store.get(published_cid(ctx, 0)))
    flat = update.delta.buf
    coords = segment_coords(update.delta, ctx.peers[0].segment)
    assert set(np.unique(np.abs(gather(flat, coords.owned)))) == {ctx.cfg.byzantine_scale}
    assert not gather(flat, coords.foreign).any()
    assert update.claimed_loss == 0.0


def test_cluster_mates_match_brute_force(tmp_path):
    ctx = build_ctx(tmp_path, num_peers=5, num_clusters=2)
    for pid, peer in ctx.peers.items():
        want = sorted(
            p for p, other in ctx.peers.items()
            if other.segment.cluster_id == peer.segment.cluster_id and p != pid
        )
        assert ctx.cluster_mates[pid].tolist() == want


@pytest.mark.parametrize("trim_ratio, fallbacks", [(0.0, 0), (0.2, 3)])
def test_leader_duty_counts_trim_fallbacks(tmp_path, trim_ratio, fallbacks):
    # fanout 4 keeps the config valid; with one peer per cluster nobody pulls
    ctx = build_ctx(tmp_path, num_peers=2, num_clusters=2, fanout=4, trim_ratio=trim_ratio)
    assert iterate(ctx.peers[0], ctx)
    assert iterate(ctx.peers[1], ctx)
    assert ctx.trim_fallbacks == 0
    assert leader_duty(ctx.peers[0], ctx) is not None
    # at 0.2 one update per segment and two for the lower layers are too few to
    # trim; a zero ratio asks for the plain mean, which is no fallback
    assert ctx.trim_fallbacks == fallbacks


def publish_dense_update(ctx, sender, seed, hidden=6):
    """A well-formed update with every coordinate nonzero, foreign rows included."""
    delta = init_params(4, hidden, 4, np.random.default_rng(seed))
    peer = ctx.peers[sender]
    payload = encode_update(delta, ctx.global_round, sender, peer.segment.cluster_id, 0.0)
    return peer._publish(ctx, payload)


def publish_foreign_geometry(ctx, sender):
    """A well-formed GSU1/GSM1 update whose hidden width is 5, not the run's 6."""
    return publish_dense_update(ctx, sender, seed=9, hidden=5)


def assert_flagged_once(ctx, cid):
    assert cid.hex in ctx.quarantined
    assert ctx.integrity_alarms == 1
    assert all(log_cid != cid.hex for _, _, log_cid in ctx.consumed_log)
    assert len(penalize_rows(ctx.ledger)) == 1


def test_peer_quarantines_update_of_foreign_geometry(tmp_path):
    ctx = build_ctx(tmp_path, num_peers=2, num_clusters=1, fanout=1)
    cid = publish_foreign_geometry(ctx, sender=0)
    assert iterate(ctx.peers[1], ctx)
    assert ctx.peers[1].iteration == 1
    assert_flagged_once(ctx, cid)


def test_leader_quarantines_update_of_foreign_geometry(tmp_path):
    ctx = build_ctx(tmp_path, num_peers=2, num_clusters=2, fanout=0)
    cid = publish_foreign_geometry(ctx, sender=0)
    assert iterate(ctx.peers[1], ctx)
    new_cid = leader_duty(ctx.peers[1], ctx)
    assert new_cid is not None and ctx.global_round == 1
    assert [(c, s) for c, s, _ in ctx.consumed_log] == [(1, 1)]
    assert ctx.segment_carryovers == 1  # cluster 0 had no usable update
    assert_flagged_once(ctx, cid)


def test_single_pulled_update_too_few_to_trim_keeps_own_delta(tmp_path):
    # fanout 4 keeps the config valid; peer 1's only mate is peer 0
    ctx = build_ctx(tmp_path, num_peers=2, num_clusters=1, fanout=4, trim_ratio=0.2)
    assert iterate(ctx.peers[0], ctx)
    assert ctx.trim_fallbacks == 0  # a lone own delta is not a combine
    peer = ctx.peers[1]
    assert iterate(peer, ctx)
    assert [(c, s) for c, s, _ in ctx.consumed_log] == [(1, 0)]
    assert ctx.trim_fallbacks == 1
    own = decode_update(ctx.store.get(published_cid(ctx, peer.peer_id))).delta
    assert peer.params.buf.tobytes() == (peer.baseline.buf + own.buf).tobytes()


# -- reference: mask every update, combine whole buffers, mask again, add --


def reference_combine(flats, trim_ratio, fallback=None):
    if trim_ratio > 0 and is_trim_feasible(len(flats), trim_ratio):
        return trimmed_mean(flats, trim_ratio)
    if trim_ratio > 0 and fallback is not None:
        return fallback
    return plain_mean(flats)


def reference_leader(ctx, base):
    """Mask every update to its segment, combine whole buffers, mask again, add."""
    trim_ratio = ctx.cfg.trim.trim_ratio
    latest = ctx.ledger.hash_records(round_tag="r0")
    by_cluster, all_flats = {}, []
    for sender in sorted(latest):
        update = decode_update(ctx.store.get(latest[sender]))
        cluster_id = ctx.peers[sender].segment.cluster_id
        masked = mask_to_segment(update.delta, ctx.segment_specs[cluster_id]).buf
        by_cluster.setdefault(cluster_id, []).append(masked)
        all_flats.append(masked)
    theta = base.copy()
    lower = sum(t.size for t in base.lower_layers)
    theta.buf[:lower] += reference_combine(all_flats, trim_ratio)[:lower]
    for cluster_id in sorted(by_cluster):
        combined = base.with_buf(reference_combine(by_cluster[cluster_id], trim_ratio))
        theta.buf[lower:] += mask_to_segment(combined, ctx.segment_specs[cluster_id]).buf[lower:]
    return theta


COMBINE_CASES = [
    (trim_ratio, clusters, per_combine)
    for trim_ratio in (0.0, 0.2)
    for clusters in (1, 2, 3)
    for per_combine in (1, 2, 8)
]


@pytest.mark.parametrize("trim_ratio, clusters, per_combine", COMBINE_CASES)
def test_leader_duty_matches_full_buffer_reference(tmp_path, trim_ratio, clusters, per_combine):
    # fanout 4 keeps the config valid at trim 0.2; nobody pulls here
    ctx = build_ctx(tmp_path, num_peers=clusters * per_combine, num_clusters=clusters,
                    fanout=4, trim_ratio=trim_ratio)
    for pid in ctx.peers:
        publish_dense_update(ctx, pid, seed=50 + pid)
    base = ctx.global_params.copy()
    expected = reference_leader(ctx, base)
    cid = leader_duty(ctx.peers[0], ctx)
    assert ctx.store.get(cid) == canonical_bytes(expected)
    assert ctx.segment_carryovers == 0


@pytest.mark.parametrize("trim_ratio, clusters, per_combine", COMBINE_CASES)
def test_peer_iteration_matches_full_buffer_reference(tmp_path, trim_ratio, clusters, per_combine):
    # peer 0 pulls every mate, so it combines its own delta with per_combine - 1
    # dense updates; a fanout of at least 4 keeps the config valid at trim 0.2
    ctx = build_ctx(tmp_path, num_peers=clusters * per_combine, num_clusters=clusters,
                    fanout=max(4, per_combine - 1), trim_ratio=trim_ratio)
    for pid in list(ctx.peers)[1:]:
        publish_dense_update(ctx, pid, seed=50 + pid)
    peer = ctx.peers[0]
    collected = []
    collect = peer._collect

    def recording_collect(c):
        collected.extend(collect(c))
        return collected

    peer._collect = recording_collect
    baseline = peer.baseline.copy()
    assert iterate(peer, ctx)
    assert len(collected) == per_combine - 1

    own = decode_update(ctx.store.get(published_cid(ctx, peer.peer_id))).delta.buf
    vectors = [own] + [mask_to_segment(u.delta, peer.segment).buf for u in collected]
    combined = (
        own if len(vectors) == 1 else reference_combine(vectors, trim_ratio, fallback=own)
    )
    expected = baseline.with_buf(baseline.buf + combined)
    assert canonical_bytes(peer.params) == canonical_bytes(expected)


def test_leader_round_without_accepted_updates_returns_base(tmp_path):
    ctx = build_ctx(tmp_path, num_peers=3, num_clusters=3, fanout=0)
    for pid in ctx.peers:
        ctx.quarantined.add(publish_dense_update(ctx, pid, seed=pid).hex)
    base = ctx.global_params.copy()
    cid = leader_duty(ctx.peers[0], ctx)
    assert ctx.store.get(cid) == canonical_bytes(base)
    assert ctx.segment_carryovers == len(ctx.segment_specs) == 3
    assert ctx.consumed_log == [] and ctx.global_round == 1


@pytest.mark.parametrize("tensor", ["last_layer_weights", "last_layer_bias"])
def test_audit_counts_one_ulp_write_to_a_foreign_row(tmp_path, tensor):
    ctx = build_ctx(tmp_path)
    peer = ctx.peers[0]
    assert peer.segment.end + 1 < peer.params.num_output_units
    owned_row, foreign_row = peer.segment.start, peer.segment.end + 1
    values = getattr(peer.params, tensor)
    values[owned_row] = np.nextafter(values[owned_row], np.inf)
    peer._audit_segment(ctx)
    assert ctx.segment_violations == 0
    values[foreign_row] = np.nextafter(values[foreign_row], np.inf)
    peer._audit_segment(ctx)
    assert ctx.segment_violations == 1


def test_synced_peers_share_one_read_only_global_model(tmp_path):
    ctx = build_ctx(tmp_path, num_peers=4, num_clusters=2, fanout=1)
    publish_global(ctx, 0, ctx.global_params)
    for stage in ("genesis", "leader round"):
        for peer in ctx.peers.values():
            assert peer.sync_global(ctx), stage
            assert peer.params is ctx.global_params and peer.baseline is ctx.global_params
        shared = ctx.global_params
        for array in (shared.buf, shared.last_layer_weights, shared.lower_layers[0]):
            with pytest.raises(ValueError):
                array[0] += 1.0
        for peer in ctx.peers.values():
            assert iterate(peer, ctx)
            # training gives the peer a model of its own; its baseline stays shared
            assert peer.params.buf.flags.writeable and peer.baseline is shared
        leader_duty(ctx.peers[0], ctx)
        assert ctx.global_params is not shared


@pytest.mark.parametrize("error", [IntegrityError, NotFoundError])
def test_failed_global_fetch_keeps_the_previous_baseline_object(tmp_path, monkeypatch, error):
    ctx = build_ctx(tmp_path)
    publish_global(ctx, 0, ctx.global_params)
    peer = ctx.peers[0]
    params, baseline = peer.params, peer.baseline

    def failing_get(cid):
        raise error("fetch failed")

    monkeypatch.setattr(ctx.store, "get", failing_get)
    assert peer.sync_global(ctx) is False
    assert peer.baseline is baseline and peer.params is params
    assert ctx.integrity_alarms == 1 and peer.synced_round == -1


def test_shard_indices_draw_the_rows_a_copied_shard_draws(tmp_path):
    data = synthetic_blobs(4, 60, 4, np.random.default_rng(0))
    shard = np.random.default_rng(5).choice(len(data.labels), size=90, replace=False)
    copied = LabeledDataset(data.features[shard], data.labels[shard], data.num_classes)
    base = init_params(4, 6, 4, np.random.default_rng(1))
    spec = segment_boundaries(4, 2)[0]
    shared, private = (
        Peer(peer_id=0, segment=spec, params=base, baseline=base, train=train,
             shard=rows, rng=np.random.default_rng(7))
        for train, rows in ((data, shard), (copied, np.arange(len(shard))))
    )
    assert shared.eval_features.tobytes() == private.eval_features.tobytes()
    assert shared.eval_labels.tobytes() == private.eval_labels.tobytes()
    assert len(shared.eval_labels) == 64
    for batch_size in (16, 200):  # a batch of the whole shard too
        train = TrainConfig(batch_size=batch_size)
        for got, want in zip(shared._batches(train), private._batches(train)):
            assert got.tobytes() == want.tobytes()


# shards whose batches (at batch_size 32) hold 1, 2, 5, 7, 31, 32 and 32 rows
# and whose eval sets hold 1, 2, 5, 7, 31, 32 and 64
SHARD_SIZES = (1, 2, 5, 7, 31, 32, 100)


def peers_of_every_size(shape):
    input_dim, hidden, classes = shape
    rng = np.random.default_rng(18)
    data = LabeledDataset(
        rng.normal(size=(sum(SHARD_SIZES), input_dim)),
        rng.integers(0, classes, size=sum(SHARD_SIZES)),
        classes,
    )
    specs = segment_boundaries(classes, 3)
    ends = np.cumsum(SHARD_SIZES)
    peers = []
    for pid, (size, end) in enumerate(zip(SHARD_SIZES, ends)):
        params = init_params(input_dim, hidden, classes, np.random.default_rng(pid))
        peers.append(Peer(peer_id=pid, segment=specs[pid % 3], params=params, baseline=params,
                          train=data, shard=np.arange(end - size, end),
                          rng=np.random.default_rng(100 + pid)))
    return peers


@pytest.mark.parametrize("shape", [(8, 16, 4), (64, 512, 32)])
def test_local_steps_stacks_every_batch_and_eval_size_exactly(shape):
    train = TrainConfig(batch_size=32, local_steps=5)
    together = local_steps(peers_of_every_size(shape), train)
    alone = [local_steps([peer], train)[0] for peer in peers_of_every_size(shape)]
    assert [(p.buf.tobytes(), loss) for p, loss in together] == [
        (p.buf.tobytes(), loss) for p, loss in alone
    ]
    # against plain steps on the unpadded rows: bit for bit where one row
    # stacks apart, unpadded; elsewhere within rounding, since whether a
    # padded product sums in the same order is up to the BLAS kernel
    for peer, (params, loss) in zip(peers_of_every_size(shape), together):
        x, y = peer._batches(train)
        plain = peer.params
        for step in range(train.local_steps):
            grad = mask_to_segment(gradient(plain, x[step], y[step]), peer.segment)
            plain = sgd_step(plain, grad, train.learning_rate)
        _, plain_loss = evaluate(plain, peer.eval_features, peer.eval_labels)
        if len(peer.shard) == 1:
            assert params.buf.tobytes() == plain.buf.tobytes() and loss == plain_loss
        else:
            assert np.allclose(params.buf, plain.buf, rtol=0, atol=1e-12)
            assert loss == pytest.approx(plain_loss, rel=1e-12)
