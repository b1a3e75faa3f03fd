"""The package's exception types survive `pickle` and `copy`: a forked EM
restart sends the error it raised to the fit's process pickled, and the
CLI maps each error type to its exit code."""

import copy
import inspect
import pickle

import pytest

from factorregimes import errors

EXAMPLES = {
    errors.FactorRegimesError: (("base error",), {}),
    errors.PanelParseError: (("bad value 'x'", 7), {"line_number": 7}),
    errors.SchemaError: (("missing column HML",), {}),
    errors.SampleSizeError: ((10, 5, "lag 3 design"),
                             {"required": 10, "available": 5}),
    errors.DegenerateDesignError: (("unrestricted design rank 4 < 5 columns",), {}),
    errors.EstimationError: (("all 2 restarts failed",), {}),
}


def test_every_error_class_has_an_example():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, Exception) and cls.__module__ == errors.__name__}
    assert classes == set(EXAMPLES)


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy,
                                 lambda exc: pickle.loads(pickle.dumps(exc))],
                         ids=["copy", "deepcopy", "pickle"])
def test_error_survives_copy_and_pickle(cls, how):
    args, attributes = EXAMPLES[cls]
    exc = cls(*args)
    again = how(exc)
    assert type(again) is cls
    assert str(again) == str(exc) and again.args == exc.args
    assert vars(again) == vars(exc) == attributes


def test_sample_size_error_keeps_its_text_and_counts():
    again = pickle.loads(pickle.dumps(errors.SampleSizeError(10, 5, "lag 3 design")))
    assert str(again) == "lag 3 design: need at least 10 observations, have 5"
    assert (again.required, again.available) == (10, 5)
    assert str(copy.copy(errors.PanelParseError("bad", 3))) == "line 3: bad"
