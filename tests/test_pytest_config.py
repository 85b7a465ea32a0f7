"""The suite's own pytest settings take effect."""


def test_unregistered_markers_fail_collection(pytestconfig):
    # a misspelled marker such as @pytest.mark.xfial must not unpin a strict xfail
    assert pytestconfig.getini("strict_markers") is True
