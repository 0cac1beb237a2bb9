import pytest
from hypothesis import settings

# Every run draws the same examples, so a property test cannot pass only on
# some runs; deadline=None keeps slow shared machines from failing examples.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def sink_server():
    from test_tunnel import SinkServer

    server = SinkServer()
    yield server
    server.close()
