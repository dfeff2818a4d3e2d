import mfglab


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from mfglab import *", namespace)
    for name in mfglab.__all__:
        assert namespace[name] is getattr(mfglab, name), name
