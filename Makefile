# Convenience targets for the AlphaWAN reproduction.

.PHONY: install test lint lint-changed typecheck bench docs examples all

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

lint:
	PYTHONPATH=src python -m repro.tools lint src tests --deep

# Fast local loop: only report files changed vs HEAD.
lint-changed:
	PYTHONPATH=src python -m repro.tools lint src tests --deep --changed

typecheck:
	@python -c "import mypy" 2>/dev/null \
		&& python -m mypy \
		|| echo "mypy not installed; skipping typecheck (CI runs it -- pip install mypy)"

bench:
	pytest benchmarks/ --benchmark-only

docs:
	PYTHONPATH=src python -m repro.tools.apidoc docs/API.md

examples:
	python examples/quickstart.py
	python examples/gateway_anatomy.py
	python examples/coexistence_sharing.py
	python examples/standards_compliance.py
	python examples/city_scale.py

all: test bench
