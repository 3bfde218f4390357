import os


def pytest_configure(config):
    # the ``pythonpath`` setting in pyproject.toml puts src on this process's
    # sys.path only; child processes (the console-script test) need it too
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
