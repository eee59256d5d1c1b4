"""Write forwarding: the address index matches a scan of the write queue.

``ChannelController.enqueue`` forwards a read from a queued write to the
same address by looking the address up in an index that ``enqueue`` and
``_dequeue`` maintain and a snapshot pickles with the queue. The
reference is the direct form: scan ``write_q`` for the address. Random
enqueues, ticks (which serve and drain writes) and snapshot restores
must agree with it on every read, and the index must count exactly the
queued writes.
"""

import pickle
from collections import Counter

from hypothesis import given, strategies as st

from repro.controller import RequestType

from tests.controller.test_controller import (
    channel0_address,
    make_controller,
    make_request,
)

#: A few lines over two banks and two rows, so writes collide.
ADDRESSES = [
    channel0_address(row=row, col=col, bank=bank)
    for bank in (0, 1)
    for row in (3, 9)
    for col in (0, 1)
]


def controller_with_small_queues():
    return make_controller(
        write_queue_size=8, write_drain_high=6, write_drain_low=2
    )


def check_index(controller):
    queued = Counter(request.address for request in controller.write_q)
    assert controller._write_lines == dict(queued)


def enqueue_checked(controller, address, type, now):
    """Enqueue one request (if there is room); check that it forwarded
    iff a write to its address is queued."""
    if not controller.can_accept(type):
        return
    request = make_request(address, type=type)
    expected = type is RequestType.READ and any(
        pending.address == address for pending in controller.write_q
    )
    before = controller.stats["forwarded_reads"]
    assert controller.enqueue(request, now)
    assert controller.stats["forwarded_reads"] - before == expected
    queued = any(r is request for r in controller.read_q + controller.write_q)
    assert queued != expected
    check_index(controller)


def tick(controller, now, steps):
    for _ in range(steps):
        now = max(controller.tick(now), now + 1)
        check_index(controller)
    return now


operations = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(("read", "write", "write")),
            st.integers(0, len(ADDRESSES) - 1),
        ),
        st.tuples(st.just("tick"), st.integers(1, 60)),
        st.tuples(st.sampled_from(("save", "restore")), st.just(0)),
    ),
    max_size=60,
)


@given(ops=operations)
def test_forwarding_matches_write_queue_scan(ops):
    controller, _ = controller_with_small_queues()
    now = 0
    saved = pickle.dumps(controller)
    for op, arg in ops:
        if op == "tick":
            now = tick(controller, now, arg)
        elif op == "save":
            saved = pickle.dumps(controller)
        elif op == "restore":
            controller = pickle.loads(saved)
            check_index(controller)
        else:
            type = RequestType.READ if op == "read" else RequestType.WRITE
            enqueue_checked(controller, ADDRESSES[arg], type, now)


def test_line_with_two_writes_forwards_until_both_drain():
    controller, _ = controller_with_small_queues()
    address = ADDRESSES[0]
    for _ in range(2):
        enqueue_checked(controller, address, RequestType.WRITE, 0)
    assert controller._write_lines == {address: 2}
    now = 0
    while controller.stats["writes_served"] < 1:
        now = tick(controller, now, 1)
    assert controller._write_lines == {address: 1}
    enqueue_checked(controller, address, RequestType.READ, now)
    assert controller.stats["forwarded_reads"] == 1
    while controller.stats["writes_served"] < 2:
        now = tick(controller, now, 1)
    assert controller._write_lines == {}
    enqueue_checked(controller, address, RequestType.READ, now)
    assert controller.stats["forwarded_reads"] == 1
    assert len(controller.read_q) == 1
