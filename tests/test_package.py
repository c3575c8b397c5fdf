import ladderkit


def test_every_export_resolves():
    missing = [name for name in ladderkit.__all__
               if not hasattr(ladderkit, name)]
    assert missing == []
    assert len(set(ladderkit.__all__)) == len(ladderkit.__all__)
