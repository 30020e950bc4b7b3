"""Property tests for session delivery semantics.

The MRAI machinery coalesces, cancels, and delays updates; the invariant
that must survive all of it is *eventual consistency*: once the wire is
quiet, the receiver's view of each prefix equals the sender's final
state, and deliveries never reorder.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.bgp.engine import EventEngine
from repro.bgp.policy import Relationship
from repro.bgp.session import Session, SessionTiming
from repro.net.addr import IPv4Prefix

from tests.conftest import heard

PREFIXES = [IPv4Prefix.parse(f"184.164.{i}.0/24") for i in range(4)]

#: (prefix index, announce?) action sequences
actions_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.booleans()),
    min_size=1,
    max_size=40,
)

timing_strategy = st.builds(
    SessionTiming,
    latency=st.floats(min_value=0.0, max_value=0.5),
    jitter=st.floats(min_value=0.0, max_value=2.0),
    mrai=st.floats(min_value=0.0, max_value=20.0),
    busy_prob=st.floats(min_value=0.0, max_value=1.0),
)


def drive(actions, timing, seed, gap=0.3):
    """Apply the action sequence through one session; return the
    receiver's final per-prefix state and the delivery order."""
    engine = EventEngine()
    received: list = []
    session = Session(
        engine,
        random.Random(seed),
        "a",
        "b",
        Relationship.CUSTOMER,
        received.append,
        timing,
    )
    sender_state: dict = {}
    for i, (prefix_index, announce) in enumerate(actions):
        prefix = PREFIXES[prefix_index]
        route = heard("a", prefix, (100, i), origin_node="a") if announce else None
        sender_state[prefix] = route
        session.send(prefix, route, 0)
        engine.run_until(engine.now + gap)
    engine.run_until_idle()

    receiver_state: dict = {}
    for update in received:
        receiver_state[update.prefix] = update.route
    return sender_state, receiver_state, received


class TestEventualConsistency:
    @settings(max_examples=60, deadline=None)
    @given(actions_strategy, timing_strategy, st.integers(min_value=0, max_value=99))
    def test_receiver_converges_to_sender_state(self, actions, timing, seed):
        sender_state, receiver_state, _ = drive(actions, timing, seed)
        for prefix, final in sender_state.items():
            got = receiver_state.get(prefix)
            if final is None:
                assert got is None, f"{prefix}: receiver kept a withdrawn route"
            else:
                assert got is not None, f"{prefix}: announcement never arrived"
                assert got.as_path == final.as_path, f"{prefix}: stale attributes"

    @settings(max_examples=30, deadline=None)
    @given(actions_strategy, st.integers(min_value=0, max_value=99))
    def test_no_withdrawal_for_unannounced_prefix(self, actions, seed):
        """The wire never carries a withdrawal for a prefix the receiver
        has not been told about."""
        timing = SessionTiming(latency=0.05, jitter=0.5, mrai=5.0, busy_prob=0.3)
        _, _, received = drive(actions, timing, seed)
        known: set = set()
        for update in received:
            if update.route is not None:
                known.add(update.prefix)
            else:
                assert update.prefix in known
                known.discard(update.prefix)

    @settings(max_examples=30, deadline=None)
    @given(actions_strategy, timing_strategy, st.integers(min_value=0, max_value=99))
    def test_per_prefix_delivery_order_preserved(self, actions, timing, seed):
        """For each prefix, delivered updates follow the send order of
        the (non-coalesced) updates that survive."""
        sender_state, _, received = drive(actions, timing, seed)
        # The final delivered update per prefix must be the final state;
        # intermediate deliveries only ever move forward in send order.
        last_path: dict = {}
        for update in received:
            if update.route is not None:
                previous = last_path.get(update.prefix)
                if previous is not None:
                    assert update.route.as_path[1] >= previous
                last_path[update.prefix] = update.route.as_path[1]
